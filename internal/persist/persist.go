package persist

import (
	"os"
	"sync"
	"time"

	"slamshare/internal/holo"
	"slamshare/internal/obs"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

// Options configures a persistence manager.
type Options struct {
	// Dir is the checkpoint + journal directory.
	Dir string
	// CheckpointEvery is the background snapshot interval. Zero means
	// the 30 s default; negative disables the ticker (checkpoints then
	// happen only through CheckpointNow).
	CheckpointEvery time.Duration
	// Fsync syncs every journal batch to disk. Off by default: the
	// journal write itself survives a process crash, and AR sessions
	// care about server crashes far more than kernel ones.
	Fsync bool
	// Obs, when non-nil, records persistence spans: "wal.append" per
	// drained journal batch (on the writer goroutine, never the hot
	// path) and "persist.checkpoint" per snapshot: the time its cut
	// held the map's writers off.
	Obs *obs.Tracer
}

// DefaultCheckpointEvery is the background snapshot interval when
// Options leaves it zero.
const DefaultCheckpointEvery = 30 * time.Second

// keepCheckpoints is how many recent checkpoints survive pruning: two,
// so a corrupt newest snapshot still has a fallback.
const keepCheckpoints = 2

// Stats holds the persistence counters, which the server publishes as
// persist.* beside the persist.checkpoint and persist.replay histograms.
type Stats struct {
	Checkpoints     obs.Counter
	CheckpointBytes obs.Counter
	JournalRecords  obs.Counter
	JournalBytes    obs.Counter
	ReplayedRecords obs.Counter
}

// Manager owns the durability machinery of one server: it observes the
// global map through the journal and snapshots it on a background
// goroutine. All I/O is off the tracking/merge hot path — mutation
// callbacks, which the map runs in place under a stripe lock, only
// encode into the journal's in-memory batch.
type Manager struct {
	opts    Options
	m       *smap.Map
	anchors *holo.Registry
	lock    *sync.RWMutex
	journal *Journal
	stats   *Stats
	stCkpt  *obs.Stage

	// cpMu serializes checkpoints (ticker vs explicit CheckpointNow).
	cpMu sync.Mutex

	tick *time.Ticker
	quit chan struct{}
	done chan struct{}
}

// Open starts persistence for the given map and anchor registry,
// journaling from lastSeq (the LastSeq of a preceding Recover, or 0
// for a fresh session). lock, when non-nil, is read-held while the
// checkpoint snapshot is encoded — pass the same mutex that guards map
// compound operations (the server's global-map lock) so snapshots
// never interleave with a half-applied merge.
func Open(opts Options, m *smap.Map, anchors *holo.Registry, lastSeq uint64, lock *sync.RWMutex) (*Manager, error) {
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	stats := &Stats{}
	j, err := openJournal(opts.Dir, lastSeq, opts.Fsync, stats)
	if err != nil {
		return nil, err
	}
	if opts.Obs != nil {
		j.stWAL = opts.Obs.Stage("wal.append")
	}
	mgr := &Manager{
		opts:    opts,
		m:       m,
		anchors: anchors,
		lock:    lock,
		journal: j,
		stats:   stats,
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if opts.Obs != nil {
		mgr.stCkpt = opts.Obs.Stage("persist.checkpoint")
	}
	m.SetObserver(j)
	if opts.CheckpointEvery > 0 {
		mgr.tick = time.NewTicker(opts.CheckpointEvery)
		go mgr.tickLoop()
	} else {
		close(mgr.done)
	}
	return mgr, nil
}

func (mgr *Manager) tickLoop() {
	defer close(mgr.done)
	for {
		select {
		case <-mgr.tick.C:
			mgr.CheckpointNow()
		case <-mgr.quit:
			return
		}
	}
}

// Journal returns the manager's write-ahead journal, for the import
// brackets and region markers that are not map mutations, or flushing
// in tests.
func (mgr *Manager) Journal() *Journal { return mgr.journal }

// Stats returns the persistence counters.
func (mgr *Manager) Stats() *Stats { return mgr.stats }

// CheckpointNow takes a snapshot: copy the map at one cut, rotating
// the journal inside it, encode the copy and the anchors, durably write
// the checkpoint, then prune journals and checkpoints the snapshot
// supersedes. The cut holds every map writer off while the map is
// copied (the persist.checkpoint span times it), so the snapshot holds
// exactly the journal records up to the rotation's sequence number.
// Safe to call concurrently with map mutations; callers on the hot path
// should not call it (the ticker does).
func (mgr *Manager) CheckpointNow() error {
	mgr.cpMu.Lock()
	defer mgr.cpMu.Unlock()

	if mgr.lock != nil {
		mgr.lock.RLock()
	}
	var (
		kfs      []*smap.KeyFrame
		mps      []*smap.MapPoint
		holoBlob []byte
	)
	seq, err := mgr.journal.rotate(func(seal func()) {
		sp := mgr.stCkpt.Start(0, uint64(mgr.stats.Checkpoints.Load()+1))
		kfs, mps = mgr.m.Snapshot(seal)
		sp.End()
	})
	if err == nil && mgr.anchors != nil {
		holoBlob = mgr.anchors.Encode()
	}
	if mgr.lock != nil {
		mgr.lock.RUnlock()
	}
	if err != nil {
		return err
	}

	mapBlob := wire.EncodeSnapshot(kfs, mps)
	n, err := writeCheckpoint(mgr.opts.Dir, seq, mapBlob, holoBlob)
	if err != nil {
		return err
	}
	mgr.stats.Checkpoints.Inc()
	mgr.stats.CheckpointBytes.Add(int64(n))
	mgr.prune(seq)
	return nil
}

// prune deletes checkpoints beyond the retention count and journal
// files wholly covered by the newest checkpoint. Best effort: an
// undeletable file only wastes disk.
func (mgr *Manager) prune(newSeq uint64) {
	if ckpts, err := listCheckpoints(mgr.opts.Dir); err == nil {
		for i := 0; i < len(ckpts)-keepCheckpoints; i++ {
			os.Remove(checkpointPath(mgr.opts.Dir, ckpts[i]))
		}
	}
	if wals, err := listJournals(mgr.opts.Dir); err == nil {
		for _, base := range wals {
			if base < newSeq {
				os.Remove(journalPath(mgr.opts.Dir, base))
			}
		}
	}
}

// Flush synchronously writes the queued journal records to disk:
// every mutation that returned before the call is durable after it.
// Tests and graceful shutdown use it; the hot path never waits on it.
func (mgr *Manager) Flush() error { return mgr.journal.Flush() }

// Close detaches the observer, stops the checkpoint ticker, and
// flushes and closes the journal. It deliberately does NOT write a
// final checkpoint: restart then always exercises the journal replay
// path, and the on-disk state matches what a crash at the same moment
// would have left.
func (mgr *Manager) Close() error {
	mgr.m.SetObserver(nil)
	if mgr.tick != nil {
		mgr.tick.Stop()
	}
	close(mgr.quit)
	<-mgr.done
	return mgr.journal.close()
}
