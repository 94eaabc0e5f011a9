package exp

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/lifecycle"
	"slamshare/internal/server"
)

// SoakSample is one point on a soak run's map-growth trajectory.
type SoakSample struct {
	VirtualSec    float64
	KeyFrames     int
	MapPoints     int
	ResidentBytes int64
}

// soakRunResult is the outcome of one server's soak run.
type soakRunResult struct {
	Samples  []SoakSample
	Merged   int
	Sessions int
	Culled   int64
	Sparse   int64
	Regions  int64 // regions evicted
	EvictKFs int64
	Reloads  int64
	Dropped  int64
	Invar    string // invariant audit summary at quiescence
}

// SoakResult compares the lifecycle-managed run against the unbounded
// control.
type SoakResult struct {
	On, Off soakRunResult
}

// soakSpec is one fleet member: a vehicle loop or a pedestrian stroll
// over the shared city grid.
type soakSpec struct {
	name   string
	seq    *dataset.Sequence
	join   int
	leave  int
	stride int
}

// soakFleet builds n staggered city-grid sessions: two vehicles for
// every pedestrian. Every route leaves the same west-end "depot" and
// drives the first main-street block eastbound — the block every
// session re-maps, which is what gives merge detection a guaranteed
// common region with the growing global map and the cull pass genuine
// redundancy — then turns off into a deterministic random walk, each
// tail visited by one session and then left to go cold (eviction
// fodder). Sequences run at half resolution, the chaos harness's
// trick for fitting many real-pipeline clients in a budget; vehicles
// move at urban speed (7 m/s), which half-resolution tracking holds
// through 90-degree turns.
func soakFleet(n, activeSteps, stagger int) []soakSpec {
	rng := rand.New(rand.NewSource(0x50AC))
	specs := make([]soakSpec, 0, n)
	for i := 0; i < n; i++ {
		vehicle := i%3 != 2
		speed, legs, stride := 7.0, 6, 2
		if !vehicle {
			// Pedestrian AR user: walking pace, larger stride so the
			// session still covers ground worth merging.
			speed, legs, stride = 1.4, 2, 4
		}
		route := soakRoute(rng, legs)
		kind := "veh"
		if !vehicle {
			kind = "ped"
		}
		name := fmt.Sprintf("%s%02d", kind, i)
		specs = append(specs, soakSpec{
			name:   name,
			seq:    dataset.HalfRes(dataset.CityRoute(name, route, speed, camera.Stereo, int64(200+i))),
			join:   i * stagger,
			leave:  i*stagger + activeSteps,
			stride: stride,
		})
	}
	return specs
}

// soakRoute builds one fleet route: leave the depot at the west end
// of the central east-west main street, drive its first block east,
// then random-walk the lattice, avoiding an immediate backtrack when
// any other direction stays on the grid.
func soakRoute(rng *rand.Rand, legs int) [][2]int {
	max := dataset.CityBlocks
	mid := max / 2
	cur := [2]int{1, mid}
	route := [][2]int{{0, mid}, cur}
	prev := [2]int{0, mid}
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for len(route) <= legs {
		perm := rng.Perm(4)
		next := prev // fallback: backtrack if boxed in
		for _, k := range perm {
			cand := [2]int{cur[0] + dirs[k][0], cur[1] + dirs[k][1]}
			if cand[0] < 0 || cand[0] > max || cand[1] < 0 || cand[1] > max {
				continue
			}
			if cand == prev {
				continue
			}
			next = cand
			break
		}
		prev, cur = cur, next
		route = append(route, cur)
	}
	return route
}

// soakRun drives the fleet against one server and samples map growth.
func soakRun(specs []soakSpec, steps, sampleEvery int, lcfg lifecycle.Config) (soakRunResult, error) {
	var res soakRunResult
	dir, err := os.MkdirTemp("", "slamshare-soak-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	cfg := server.DefaultConfig()
	cfg.Persist.Dir = dir
	cfg.Persist.CheckpointEvery = -1
	cfg.Lifecycle = lcfg
	// Vehicular profile: the default keyframe window (ratio 0.7 against
	// lost at 15 inliers) is too narrow for fast forward motion in a
	// sparse street scene — one steep inlier drop can cross both
	// thresholds in a single frame. Widen the insertion window and
	// lower the lost line so the map extends ahead of the vehicle.
	cfg.TrackCfg.KFTrackedRatio = 0.85
	cfg.TrackCfg.MinInliers = 10
	if cfg.Overload.MaxSessions < len(specs) {
		cfg.Overload.MaxSessions = len(specs) + 1
	}
	parts := make([]*Participant, 0, len(specs))
	for _, sp := range specs {
		parts = append(parts, &Participant{
			Name: sp.name, Seq: sp.seq,
			JoinStep: sp.join, LeaveStep: sp.leave, Stride: sp.stride,
		})
	}
	r, err := NewRunner(cfg, 2.0/specs[0].seq.FPS, parts...)
	if err != nil {
		return res, err
	}
	defer r.Close()
	srv := r.Srv
	r.OnStep = func(step int, vt float64) bool {
		if (step+1)%sampleEvery != 0 && step != steps-1 {
			return false
		}
		g := srv.Global()
		res.Samples = append(res.Samples, SoakSample{
			VirtualSec:    vt,
			KeyFrames:     g.NKeyFrames(),
			MapPoints:     g.NMapPoints(),
			ResidentBytes: lifecycle.EstimateResidentBytes(g),
		})
		return false
	}
	if err := r.Run(steps); err != nil {
		return res, err
	}

	res.Sessions = len(parts)
	for _, p := range parts {
		if p.Merged {
			res.Merged++
		}
	}
	if lm := srv.Lifecycle(); lm != nil {
		st := lm.Stats()
		res.Culled = st.CulledKeyFrames.Load()
		res.Sparse = st.SparsifiedPoints.Load()
		res.Regions = st.EvictedRegions.Load()
		res.EvictKFs = st.EvictedKeyFrames.Load()
		res.Reloads = st.ReloadedRegions.Load()
		res.Dropped = st.DroppedRegions.Load()
	}
	// Quiescent audit: once with regions evicted, once with everything
	// reloaded — the reload path must restore a structurally clean map.
	rep := srv.Global().CheckInvariants()
	res.Invar = rep.Summary()
	if rep.OK() {
		if lm := srv.Lifecycle(); lm != nil && lm.EvictedRegionCount() > 0 {
			lm.ReloadAll()
			if rep2 := srv.Global().CheckInvariants(); !rep2.OK() {
				res.Invar = "after reload-all: " + rep2.Summary()
			}
		}
	}
	return res, nil
}

// Soak runs the city-grid fleet twice — lifecycle on, then the
// unbounded control — and prints the map-growth trajectories side by
// side: the paper's "server that runs forever" claim is the left pair
// of columns flattening while the right pair keeps climbing. full
// scales up to a 50-session compressed hour.
func Soak(w io.Writer, full bool) (*SoakResult, error) {
	nSessions, activeSteps, stagger := 8, 160, 18
	budget, evictAfter := 60, uint64(200)
	if full {
		nSessions, activeSteps, stagger = 50, 280, 30
		budget, evictAfter = 400, 3000
	}
	steps := (nSessions-1)*stagger + activeSteps
	sampleEvery := steps / 10
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	specs := soakFleet(nSessions, activeSteps, stagger)
	vehicles := 0
	for _, sp := range specs {
		if sp.name[0] == 'v' {
			vehicles++
		}
	}

	on, err := soakRun(specs, steps, sampleEvery, lifecycle.Config{
		MaxKeyFrames: budget,
		EvictAfter:   evictAfter,
	})
	if err != nil {
		return nil, err
	}
	off, err := soakRun(specs, steps, sampleEvery, lifecycle.Config{})
	if err != nil {
		return nil, err
	}
	res := &SoakResult{On: on, Off: off}

	fmt.Fprintf(w, "City-grid soak: %d sessions (%d vehicles, %d pedestrians), %d steps, kf budget %d, evict after %d frames\n",
		nSessions, vehicles, nSessions-vehicles, steps, budget, evictAfter)
	tablef(w, "%8s  %-24s  %-24s", "", "lifecycle on", "lifecycle off (control)")
	tablef(w, "%8s  %8s %6s %8s  %8s %6s %8s",
		"t(s)", "KFs", "MB", "points", "KFs", "MB", "points")
	for i := range on.Samples {
		a := on.Samples[i]
		b := SoakSample{}
		if i < len(off.Samples) {
			b = off.Samples[i]
		}
		tablef(w, "%8.1f  %8d %6.1f %8d  %8d %6.1f %8d",
			a.VirtualSec, a.KeyFrames, mb(a.ResidentBytes), a.MapPoints,
			b.KeyFrames, mb(b.ResidentBytes), b.MapPoints)
	}
	tablef(w, "lifecycle: culled=%d sparsified=%d evicted=%d regions (%d KFs) reloads=%d dropped=%d",
		on.Culled, on.Sparse, on.Regions, on.EvictKFs, on.Reloads, on.Dropped)
	tablef(w, "merges   : on %d/%d  off %d/%d", on.Merged, on.Sessions, off.Merged, off.Sessions)
	tablef(w, "invariants: on %s | off %s", on.Invar, off.Invar)
	if n := len(on.Samples); n > 0 && len(off.Samples) == n {
		a, b := on.Samples[n-1], off.Samples[n-1]
		ratio := 0.0
		if a.KeyFrames > 0 {
			ratio = float64(b.KeyFrames) / float64(a.KeyFrames)
		}
		tablef(w, "final    : %d resident KFs bounded vs %d unbounded (%.1fx)",
			a.KeyFrames, b.KeyFrames, ratio)
	}
	return res, nil
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
