package cluster

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

// HalfResConfig is the pipeline tuning the chaos tier and cluster
// shards share: half-resolution frames need looser merge gates and a
// lower lost line, and churn scenarios need the map to grow in tens of
// rounds, not hundreds. urban adds the vehicular tracking profile
// city-grid routes need: a wider keyframe-insertion window and a lower
// lost line still, so fast forward motion cannot decay straight past
// both thresholds.
func HalfResConfig(urban bool) server.Config {
	cfg := server.DefaultConfig()
	cfg.MergeAfterKFs = 4
	cfg.TrackCfg.KFMinInterval = 2
	cfg.TrackCfg.MinInliers = 12
	cfg.MergeCfg.MinMatches = 12
	cfg.MergeCfg.InlierTol = 0.5
	cfg.MergeCfg.MaxRMSE = 0.3
	if urban {
		cfg.TrackCfg.KFTrackedRatio = 0.85
		cfg.TrackCfg.MinInliers = 10
	}
	return cfg
}

// EnvProc names the environment variable a test binary dispatches on
// to run ServerMain or FrontMain instead of its tests, so a harness can
// start real shard and front processes it may SIGKILL.
const EnvProc = "SLAMSHARE_PROC"

// ServerMain is the slamshare-server process: it registers the
// server's flags on fs, bound onto cfg, parses args, and serves devices
// (with -shard-id and -shard-token, also a front and sibling shards)
// until the listener fails. Every knob is a field of server.Config: a
// zero value takes the default server.New fills in; where a negative
// value means something, the flag says what. A flag sets the field it
// binds, to its default when absent; every other field is the
// caller's. The slamshare-server binary starts from
// server.DefaultConfig; a caller may register flags of its own on fs
// first.
func ServerMain(fs *flag.FlagSet, args []string, cfg *server.Config) error {
	addr := fs.String("addr", "127.0.0.1:7007", "listen address")
	debugAddr := fs.String("debug-addr", "", "serve live observability (/debug/vars, /debug/spans, /debug/pprof/) on this address (empty = disabled)")
	fs.IntVar(&cfg.TrackWorkers, "track-workers", 0, "batched tracking pool workers shared by all sessions (0 = GOMAXPROCS, negative = serial tracking, no pool)")
	fs.StringVar(&cfg.Persist.Dir, "checkpoint-dir", "", "directory for durable map checkpoints + journal (empty = no persistence)")
	fs.DurationVar(&cfg.Persist.CheckpointEvery, "checkpoint-every", 30*time.Second, "background checkpoint interval")
	fs.BoolVar(&cfg.Persist.Fsync, "fsync-journal", false, "fsync every journal batch")
	fs.IntVar(&cfg.Overload.MaxSessions, "max-sessions", 0, "admission ceiling on concurrent device sessions (0 = default 64, negative = unlimited)")
	fs.IntVar(&cfg.Overload.MaxMergesInFlight, "max-merges", 0, "ceiling on concurrent map merges (0 = default 2, negative = unlimited)")
	fs.DurationVar(&cfg.Overload.ShedBudget, "shed-budget", 0, "per-session backlog budget before stale frames are shed (0 = shedding disabled)")
	fs.DurationVar(&cfg.Overload.IdleTimeout, "idle-timeout", 0, "evict connections idle this long (0 = default 2m, negative = never)")
	fs.DurationVar(&cfg.Overload.ReadTimeout, "read-timeout", 0, "evict peers stalled mid-message this long (0 = default 30s, negative = never)")
	fs.IntVar(&cfg.Lifecycle.MaxKeyFrames, "max-map-kf", 0, "resident keyframe budget; past it the lifecycle manager culls cold keyframes by the mapper's redundancy rule and sparsifies dead points (0 = unbounded)")
	fs.Uint64Var(&cfg.Lifecycle.EvictAfter, "evict-after", 0, "evict map regions untouched for this many handled frames to disk, reloading on demand (0 = never; needs -checkpoint-dir)")
	fs.Float64Var(&cfg.Offload.SplitLoad, "split-load", 0, "server load at which full-offload sessions degrade to split keypoint upload (0 = policy default 2)")
	fs.Float64Var(&cfg.Offload.ShadowLoad, "shadow-load", 0, "server load at which split sessions degrade to shadow map-only sync; headsets are exempt (0 = policy default 6)")
	fs.DurationVar(&cfg.Offload.SplitRTT, "split-rtt", 0, "RTT beyond which full offload degrades to split regardless of load (0 = policy default 150ms)")
	fs.DurationVar(&cfg.Offload.Hysteresis, "mode-hysteresis", 0, "minimum dwell between offload mode switches (0 = policy default 2s)")
	fs.IntVar(&cfg.TrackReservedSlots, "reserved-slots", 0, "tracking-pool admission slots held back for headset (QoS 0) frames (0 = none)")
	shardID := fs.Uint("shard-id", 0, "cluster shard ID (used with slamshare-front; 0 is a valid ID)")
	fs.Uint64Var(&cfg.Shard.Token, "shard-token", 0, "shared secret authenticating shard-to-shard and front-to-shard messages")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg.Shard.ID = uint32(*shardID)
	srv, err := server.New(*cfg)
	if err != nil {
		return err
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
			return err
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
		return err
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

	return srv.Serve(l)
}
