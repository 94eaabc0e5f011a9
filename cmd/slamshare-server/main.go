// Command slamshare-server runs a SLAM-Share edge server: it owns the
// shared global map, accepts device connections over TCP,
// and periodically logs the global map's growth and merge activity.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"slamshare"
	"slamshare/internal/server"
)

func main() {
	// Every knob is a field of server.Config: the flags bind straight
	// onto it. A zero value takes the default server.New fills in; where
	// a negative value means something, the flag says what.
	cfg := server.DefaultConfig()
	addr := flag.String("addr", "127.0.0.1:7007", "listen address")
	debugAddr := flag.String("debug-addr", "", "serve live observability (/debug/vars, /debug/spans, /debug/pprof/) on this address (empty = disabled)")
	flag.IntVar(&cfg.TrackWorkers, "track-workers", 0, "batched tracking pool workers shared by all sessions (0 = GOMAXPROCS, negative = serial tracking, no pool)")
	flag.StringVar(&cfg.Persist.Dir, "checkpoint-dir", "", "directory for durable map checkpoints + journal (empty = no persistence)")
	flag.DurationVar(&cfg.Persist.CheckpointEvery, "checkpoint-every", 30*time.Second, "background checkpoint interval")
	flag.BoolVar(&cfg.Persist.Fsync, "fsync-journal", false, "fsync every journal batch")
	flag.IntVar(&cfg.Overload.MaxSessions, "max-sessions", 0, "admission ceiling on concurrent device sessions (0 = default 64, negative = unlimited)")
	flag.IntVar(&cfg.Overload.MaxMergesInFlight, "max-merges", 0, "ceiling on concurrent map merges (0 = default 2, negative = unlimited)")
	flag.DurationVar(&cfg.Overload.ShedBudget, "shed-budget", 0, "per-session backlog budget before stale frames are shed (0 = shedding disabled)")
	flag.DurationVar(&cfg.Overload.IdleTimeout, "idle-timeout", 0, "evict connections idle this long (0 = default 2m, negative = never)")
	flag.DurationVar(&cfg.Overload.ReadTimeout, "read-timeout", 0, "evict peers stalled mid-message this long (0 = default 30s, negative = never)")
	flag.IntVar(&cfg.Lifecycle.MaxKeyFrames, "max-map-kf", 0, "resident keyframe budget; past it the lifecycle manager culls cold keyframes by the mapper's redundancy rule and sparsifies dead points (0 = unbounded)")
	flag.Uint64Var(&cfg.Lifecycle.EvictAfter, "evict-after", 0, "evict map regions untouched for this many handled frames to disk, reloading on demand (0 = never; needs -checkpoint-dir)")
	flag.Float64Var(&cfg.Offload.SplitLoad, "split-load", 0, "server load at which full-offload sessions degrade to split keypoint upload (0 = policy default 2)")
	flag.Float64Var(&cfg.Offload.ShadowLoad, "shadow-load", 0, "server load at which split sessions degrade to shadow map-only sync; headsets are exempt (0 = policy default 6)")
	flag.DurationVar(&cfg.Offload.SplitRTT, "split-rtt", 0, "RTT beyond which full offload degrades to split regardless of load (0 = policy default 150ms)")
	flag.DurationVar(&cfg.Offload.Hysteresis, "mode-hysteresis", 0, "minimum dwell between offload mode switches (0 = policy default 2s)")
	flag.IntVar(&cfg.TrackReservedSlots, "reserved-slots", 0, "tracking-pool admission slots held back for headset (QoS 0) frames (0 = none)")
	shardID := flag.Uint("shard-id", 0, "cluster shard ID (used with slamshare-front; 0 is a valid ID)")
	flag.Uint64Var(&cfg.Shard.Token, "shard-token", 0, "shared secret authenticating shard-to-shard and front-to-shard messages")
	flag.Parse()

	cfg.Shard.ID = uint32(*shardID)
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	if rec := srv.Recovery(); rec != nil {
		log.Printf("recovered map from %s: %d keyframes, %d map points (checkpoint seq %d + %d journal records in %v)",
			cfg.Persist.Dir, srv.Global().NKeyFrames(), srv.Global().NMapPoints(),
			rec.CheckpointSeq, rec.ReplayedRecords, rec.ReplayTime.Round(time.Millisecond))
	}

	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug endpoint on http://%s/debug/", dl.Addr())
		go func() {
			if err := http.Serve(dl, srv.DebugHandler()); err != nil {
				log.Printf("debug endpoint: %v", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	backend := "serial, no pool"
	if p := srv.TrackPool(); p != nil {
		backend = fmt.Sprintf("pool of %d workers", p.Workers())
	}
	log.Printf("%s listening on %s (tracking: %s)", slamshare.String(), l.Addr(), backend)

	go func() {
		ticker := time.NewTicker(5 * time.Second)
		defer ticker.Stop()
		lastMerges := 0
		for range ticker.C {
			g := srv.Global()
			reports := srv.MergeReports()
			log.Printf("global map: %d keyframes, %d map points, %d merges",
				g.NKeyFrames(), g.NMapPoints(), len(reports))
			for ; lastMerges < len(reports); lastMerges++ {
				r := reports[lastMerges]
				if r.Alignment != nil {
					log.Printf("  merge: %d KFs aligned, %d inliers, %v total",
						r.InsertKFs, r.Alignment.Inliers, r.Total.Round(time.Millisecond))
				}
			}
		}
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatal(err)
	}
}
