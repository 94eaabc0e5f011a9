// Command slamshare-front runs the cluster front router: devices
// connect to it as if it were a single SLAM-Share edge server, and it
// routes each session to the shard that owns the session's spatial
// region, moving ownership between shards as the user walks across a
// boundary. Shards are slamshare-server processes started with
// -shard-id/-shard-token.
//
// Fronts are replicated for failover: run two or more instances with
// the same -token and the same -shards table (and distinct -front-id),
// and give devices the full address list. A resume-capable client that
// loses its front presents its session token to any surviving replica,
// which adopts the session in place — no relocalization, no replayed
// answers.
//
// The flags are cluster.FrontMain's.
package main

import (
	"flag"
	"log"
	"os"

	"slamshare/internal/cluster"
)

func main() {
	log.Fatal(cluster.FrontMain(flag.CommandLine, os.Args[1:], &cluster.FrontConfig{}))
}
