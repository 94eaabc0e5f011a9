// Command slamshare-server runs a SLAM-Share edge server: it owns the
// shared global map, accepts device connections over TCP,
// and periodically logs the global map's growth and merge activity.
//
// The flags are cluster.ServerMain's.
package main

import (
	"flag"
	"log"
	"os"

	"slamshare/internal/cluster"
	"slamshare/internal/server"
)

func main() {
	cfg := server.DefaultConfig()
	log.Fatal(cluster.ServerMain(flag.CommandLine, os.Args[1:], &cfg))
}
