package cluster

import (
	"fmt"
	"math"
	"net"
	"time"

	"slamshare/internal/protocol"
	"slamshare/internal/smap"
)

// ShardReport is one shard's answer to the cluster audit.
type ShardReport struct {
	ID         uint32
	KeyFrames  int
	Anchors    int
	Violations []string // smap.CheckInvariants findings on that shard
}

// ClusterReport is the cluster-level invariant audit: per-shard map
// invariants plus the cross-shard conditions that make the sharded map
// a single consistent world — no keyframe owned by two shards, and
// anchors replicated across shards agree on their pose.
type ClusterReport struct {
	Shards     []ShardReport
	Violations []string // cross-shard findings
}

// OK reports whether the audit found nothing.
func (r *ClusterReport) OK() bool {
	if len(r.Violations) > 0 {
		return false
	}
	for _, s := range r.Shards {
		if len(s.Violations) > 0 {
			return false
		}
	}
	return true
}

// Summary renders the report as one line.
func (r *ClusterReport) Summary() string {
	if r.OK() {
		total := 0
		for _, s := range r.Shards {
			total += s.KeyFrames
		}
		return fmt.Sprintf("ok (%d shards, %d KFs total)", len(r.Shards), total)
	}
	n := len(r.Violations)
	for _, s := range r.Shards {
		n += len(s.Violations)
	}
	return fmt.Sprintf("%d violations across %d shards", n, len(r.Shards))
}

// anchorPoseTol is the cross-shard anchor pose agreement tolerance.
// Anchors move between shards as exact bit copies, so this only
// absorbs float formatting, not drift.
const anchorPoseTol = 1e-9

// CheckCluster audits the cluster at a quiescent point (no frames in
// flight, no handoff mid-protocol): every shard runs its own
// smap.CheckInvariants, then the ownership sets are compared across
// shards. Meaningful only when the caller has quiesced the cluster —
// mid-handoff there is a deliberate transient window where both shards
// hold the moving region.
func CheckCluster(addrs []string, token uint64) (*ClusterReport, error) {
	rep := &ClusterReport{}
	type shardState struct {
		kfs     []uint64
		anchors []protocol.AnchorState
	}
	states := make([]shardState, len(addrs))
	for i, addr := range addrs {
		sr := ShardReport{ID: uint32(i)}
		st, err := probe(addr, token, protocol.ShardOpCheck)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d check: %w", i, err)
		}
		sr.Violations = st.Violations
		own, err := probe(addr, token, protocol.ShardOpOwnership)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d ownership: %w", i, err)
		}
		sr.KeyFrames = len(own.KFIDs)
		sr.Anchors = len(own.Anchors)
		states[i] = shardState{kfs: own.KFIDs, anchors: own.Anchors}
		rep.Shards = append(rep.Shards, sr)
	}

	// Cross-shard: every keyframe has exactly one owner.
	owner := make(map[uint64]int)
	for i, st := range states {
		for _, id := range st.kfs {
			if prev, dup := owner[id]; dup {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"kf-owned-twice: keyframe %d (client %d) owned by shard %d and shard %d",
					id, smap.ClientOf(smap.ID(id)), prev, i))
				continue
			}
			owner[id] = i
		}
	}
	// Cross-shard: replicated anchors agree on pose.
	seen := make(map[uint64]struct {
		shard int
		a     protocol.AnchorState
	})
	for i, st := range states {
		for _, a := range st.anchors {
			prev, ok := seen[a.ID]
			if !ok {
				seen[a.ID] = struct {
					shard int
					a     protocol.AnchorState
				}{i, a}
				continue
			}
			if poseDist(prev.a, a) > anchorPoseTol {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"anchor-divergent: anchor %d pose differs between shard %d and shard %d",
					a.ID, prev.shard, i))
			}
		}
	}
	return rep, nil
}

// ShardStats probes one shard's atomic counters (safe mid-import).
func ShardStats(addr string, token uint64) (protocol.ShardStats, error) {
	st, err := probe(addr, token, protocol.ShardOpStats)
	if err != nil {
		return protocol.ShardStats{}, err
	}
	return st.Stats, nil
}

// probe runs one admin control round trip.
func probe(addr string, token uint64, op byte) (*protocol.ShardStatusMsg, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	hello := protocol.ShardHelloMsg{Role: protocol.ShardRoleAdmin, Token: token}
	if err := protocol.WriteMessage(conn, protocol.TypeShardHello, hello.Encode()); err != nil {
		return nil, err
	}
	cm := protocol.ShardControlMsg{Op: op, Token: token}
	if err := protocol.WriteMessage(conn, protocol.TypeShardControl, cm.Encode()); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	mt, payload, err := protocol.ReadMessage(conn)
	if err != nil {
		return nil, err
	}
	if mt != protocol.TypeShardStatus {
		return nil, fmt.Errorf("cluster: unexpected reply type %d to control op %d", mt, op)
	}
	return protocol.DecodeShardStatusMsg(payload)
}

// poseDist is the max absolute difference across the two poses'
// rotation and translation components.
func poseDist(a, b protocol.AnchorState) float64 {
	d := 0.0
	acc := func(x, y float64) {
		if v := math.Abs(x - y); v > d {
			d = v
		}
	}
	acc(a.Pose.R.W, b.Pose.R.W)
	acc(a.Pose.R.X, b.Pose.R.X)
	acc(a.Pose.R.Y, b.Pose.R.Y)
	acc(a.Pose.R.Z, b.Pose.R.Z)
	acc(a.Pose.T.X, b.Pose.T.X)
	acc(a.Pose.T.Y, b.Pose.T.Y)
	acc(a.Pose.T.Z, b.Pose.T.Z)
	return d
}
