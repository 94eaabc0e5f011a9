// Shard-to-shard and front-to-shard control plane. Cluster mode runs N
// slamshare-server shard processes behind a slamshare-front router: the
// front admits device sessions on the device message types (1-7, 14
// and 15 — a device speaks to the front door as to a server) and
// speaks these messages to the shards: an identifying
// hello on every control connection, two-phase session handoff when a
// device's trajectory crosses a shard boundary, boundary-region
// exchange (the evicted-region codec's blob plus the hologram anchors
// riding along), and the invariant/ownership probes the cluster checker
// polls. Every decoder is strict — length-gated counts, canonical
// flags, no trailing bytes — and fuzzed like the device-facing types.
package protocol

import (
	"errors"
	"fmt"

	"slamshare/internal/codec"
	"slamshare/internal/geom"
)

// Cluster message types, continuing the device-facing sequence (1-8 in
// protocol.go). Values are explicit so a renumbering can never silently
// change the wire format.
const (
	// TypeShardHello identifies a cluster peer on a fresh connection:
	// the front door, another shard, or an admin/checker. It carries the
	// cluster token; a connection opening with anything else is a device.
	TypeShardHello = byte(9)
	// TypeBoundaryRegion carries an exported boundary region: the
	// covisibility cluster around a migrating session's newest keyframe
	// (wire.EncodeRegion blob) plus the session's hologram anchors.
	TypeBoundaryRegion = byte(10)
	// TypeHandoff drives the two-phase session handoff state machine
	// (begin/ack/nack/commit/commit-ack), epoch-stamped per session.
	TypeHandoff = byte(11)
	// TypeShardControl is an admin probe: ping, invariant check,
	// ownership dump, or stats poll.
	TypeShardControl = byte(12)
	// TypeShardStatus answers a TypeShardControl probe.
	TypeShardStatus = byte(13)
)

// ShardHello roles.
const (
	// ShardRoleFront is the session router (handoff coordinator).
	ShardRoleFront = byte(1)
	// ShardRolePeer is another shard exchanging boundary regions.
	ShardRolePeer = byte(2)
	// ShardRoleAdmin is a checker/operator connection (control probes
	// only; it may never initiate handoffs).
	ShardRoleAdmin = byte(3)
)

// ShardHelloMsg opens a cluster control connection.
type ShardHelloMsg struct {
	Role     byte
	SenderID uint32 // front instance or peer shard ID
	Token    uint64 // shared cluster secret; a mismatch drops the conn
}

// shardHelloLen is the exact ShardHelloMsg encoding size.
const shardHelloLen = 1 + 4 + 8

// Encode serializes the shard hello.
func (m *ShardHelloMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, shardHelloLen)}
	w.U8(m.Role)
	w.U32(m.SenderID)
	w.U64(m.Token)
	return w.B
}

// DecodeShardHelloMsg reverses ShardHelloMsg.Encode. Exact-length with
// a validated role byte, so a device payload never parses as a peer.
func DecodeShardHelloMsg(data []byte) (*ShardHelloMsg, error) {
	r := codec.NewReader(data)
	m := &ShardHelloMsg{}
	m.Role = r.U8()
	m.SenderID = r.U32()
	m.Token = r.U64()
	if !r.Done() {
		return nil, fmt.Errorf("protocol: bad shard hello length %d", len(data))
	}
	if m.Role < ShardRoleFront || m.Role > ShardRoleAdmin {
		return nil, fmt.Errorf("protocol: bad shard hello role %d", m.Role)
	}
	return m, nil
}

// Handoff phases.
const (
	// HandoffBegin (front -> source shard): export the session's
	// boundary region; answered with a TypeBoundaryRegion.
	HandoffBegin = byte(1)
	// HandoffAck (target shard -> front): the boundary region was
	// imported and committed; the session may move.
	HandoffAck = byte(2)
	// HandoffNack (target shard -> front): the import was refused or
	// rolled back; the session stays on the source shard.
	HandoffNack = byte(3)
	// HandoffCommit (front -> source shard): the target owns the region
	// now; erase the exported cluster.
	HandoffCommit = byte(4)
	// HandoffCommitAck (source shard -> front): the erase completed;
	// ownership is disjoint again.
	HandoffCommitAck = byte(5)
)

// maxHandoffReason bounds the Nack reason string.
const maxHandoffReason = 4096

// HandoffMsg is one step of the two-phase session handoff. Epoch is a
// per-session counter the front increments on every handoff attempt;
// it is strictly monotonic on the wire, so a stale or replayed step is
// detectable by both shards.
type HandoffMsg struct {
	Phase     byte
	ClientID  uint32
	Epoch     uint64
	FromShard uint32
	ToShard   uint32
	Reason    string // advisory, set on Nack
}

// Encode serializes the handoff message.
func (m *HandoffMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, 1+4+8+4+4+4+len(m.Reason))}
	w.U8(m.Phase)
	w.U32(m.ClientID)
	w.U64(m.Epoch)
	w.U32(m.FromShard)
	w.U32(m.ToShard)
	w.String(m.Reason)
	return w.B
}

// DecodeHandoffMsg reverses HandoffMsg.Encode. Strict: the phase byte
// must be canonical, the reason length gated, and no trailing bytes.
func DecodeHandoffMsg(data []byte) (*HandoffMsg, error) {
	r := codec.NewReader(data)
	m := &HandoffMsg{}
	m.Phase = r.U8()
	m.ClientID = r.U32()
	m.Epoch = r.U64()
	m.FromShard = r.U32()
	m.ToShard = r.U32()
	if r.Err() != nil {
		return nil, errShort
	}
	if m.Phase < HandoffBegin || m.Phase > HandoffCommitAck {
		return nil, fmt.Errorf("protocol: bad handoff phase %d", m.Phase)
	}
	m.Reason = string(r.Bytes(maxHandoffReason))
	if r.Err() != nil {
		return nil, errors.New("protocol: handoff reason length exceeds payload")
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes in handoff", r.Len())
	}
	return m, nil
}

// BoundaryRegionMsg carries an exported boundary region between shards
// (via the front): the wire.EncodeRegion blob of the covisibility
// cluster around the migrating session's newest keyframe, plus the
// session's hologram anchors (holo.EncodeAnchors). Both blobs have
// their own magic/CRC framing; this envelope only length-gates them.
type BoundaryRegionMsg struct {
	ClientID uint32
	Epoch    uint64
	RegionID uint64
	Region   []byte // wire.EncodeRegion payload
	Anchors  []byte // holo.EncodeAnchors payload (may be empty)
}

// Encode serializes the boundary-region message.
func (m *BoundaryRegionMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, 4+8+8+4+len(m.Region)+4+len(m.Anchors))}
	w.U32(m.ClientID)
	w.U64(m.Epoch)
	w.U64(m.RegionID)
	w.Bytes(m.Region)
	w.Bytes(m.Anchors)
	return w.B
}

// DecodeBoundaryRegionMsg reverses BoundaryRegionMsg.Encode. Both blob
// lengths are gated against the bytes actually present and trailing
// bytes are an error; the blobs' own CRCs are checked by their
// decoders, not here.
func DecodeBoundaryRegionMsg(data []byte) (*BoundaryRegionMsg, error) {
	r := codec.NewReader(data)
	m := &BoundaryRegionMsg{}
	m.ClientID = r.U32()
	m.Epoch = r.U64()
	m.RegionID = r.U64()
	m.Region = r.Bytes(MaxMessageSize)
	m.Anchors = r.Bytes(MaxMessageSize)
	if r.Err() != nil {
		return nil, errShort
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes in boundary region", r.Len())
	}
	return m, nil
}

// Shard control ops. Op 1, a liveness ping nothing sent, is retired.
const (
	// ShardOpCheck runs smap.CheckInvariants on the shard's map and
	// returns the violations. Meaningful at quiescent points only.
	ShardOpCheck = byte(2)
	// ShardOpOwnership dumps the shard's owned keyframe IDs and anchor
	// poses, for the cluster-level cross-shard invariant check.
	ShardOpOwnership = byte(3)
	// ShardOpStats returns counters read with atomics only — it never
	// takes the global-map lock, so a harness can poll it while an
	// import is stalled under that lock.
	ShardOpStats = byte(4)
	// ShardOpResume asks the shard for the newest handoff epoch it has
	// seen for one client, so an adopting front continues the session's
	// epoch sequence past it. Reads per-client state under its own
	// mutex, never the global-map lock.
	ShardOpResume = byte(5)
)

// ShardControlMsg is one admin probe. Only ShardOpResume carries the
// ClientID operand; the other ops keep their exact 9-byte form.
type ShardControlMsg struct {
	Op       byte
	Token    uint64
	ClientID uint32 // resume probes only
}

// shardControlLen is the exact ShardControlMsg encoding size for the
// operand-less ops; a resume probe appends the 4-byte ClientID.
const shardControlLen = 1 + 8

// Encode serializes the control probe.
func (m *ShardControlMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, shardControlLen+4)}
	w.U8(m.Op)
	w.U64(m.Token)
	if m.Op == ShardOpResume {
		w.U32(m.ClientID)
	}
	return w.B
}

// DecodeShardControlMsg reverses ShardControlMsg.Encode. The length is
// exact per op: 9 bytes for the operand-less ops, 13 for resume.
func DecodeShardControlMsg(data []byte) (*ShardControlMsg, error) {
	if len(data) != shardControlLen && len(data) != shardControlLen+4 {
		return nil, fmt.Errorf("protocol: bad shard control length %d", len(data))
	}
	r := codec.NewReader(data)
	m := &ShardControlMsg{}
	m.Op = r.U8()
	m.Token = r.U64()
	if m.Op < ShardOpCheck || m.Op > ShardOpResume {
		return nil, fmt.Errorf("protocol: bad shard control op %d", m.Op)
	}
	if m.Op == ShardOpResume {
		m.ClientID = r.U32()
	}
	if !r.Done() {
		return nil, fmt.Errorf("protocol: shard control op %d has length %d", m.Op, len(data))
	}
	return m, nil
}

// AnchorState is one hologram anchor's identity and pose as owned by a
// shard — what the cross-shard consistency check compares.
type AnchorState struct {
	ID   uint64
	Pose geom.SE3
}

// ShardStats are the atomically-readable shard counters.
type ShardStats struct {
	KeyFrames       uint64
	MapPoints       uint64
	Sessions        uint64
	ImportsInFlight uint64
	Imports         uint64 // boundary imports committed
	ImportRollbacks uint64 // boundary imports rolled back or refused
	ImportsStalled  uint64 // imports that entered the crash-window failpoint
}

// Bounds on the variable-length ShardStatusMsg sections.
const (
	maxStatusViolations   = 4096
	maxStatusViolationLen = 4096
)

// anchorStateBytes is the serialized size of one AnchorState.
const anchorStateBytes = 8 + 7*8

// ShardStatusMsg answers a ShardControlMsg. Every section is always
// present (empty for ops that do not fill it), so there is exactly one
// wire shape to decode and fuzz.
type ShardStatusMsg struct {
	Op         byte // echoes the probe
	OK         bool
	Violations []string
	KFIDs      []uint64
	Anchors    []AnchorState
	Stats      ShardStats
	// ResumeEpoch, filled for ShardOpResume, is the newest handoff
	// epoch the shard has seen for the client (0 if none). Zero for
	// every other op.
	ResumeEpoch uint64
}

// Encode serializes the status answer.
func (m *ShardStatusMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, 2+4+4+len(m.KFIDs)*8+4+len(m.Anchors)*anchorStateBytes+6*8)}
	w.U8(m.Op)
	w.Bool(m.OK)
	w.U32(uint32(len(m.Violations)))
	for _, v := range m.Violations {
		w.String(v)
	}
	w.U32(uint32(len(m.KFIDs)))
	for _, id := range m.KFIDs {
		w.U64(id)
	}
	w.U32(uint32(len(m.Anchors)))
	for _, a := range m.Anchors {
		w.U64(a.ID)
		w.Pose(a.Pose)
	}
	w.U64(m.Stats.KeyFrames)
	w.U64(m.Stats.MapPoints)
	w.U64(m.Stats.Sessions)
	w.U64(m.Stats.ImportsInFlight)
	w.U64(m.Stats.Imports)
	w.U64(m.Stats.ImportRollbacks)
	w.U64(m.Stats.ImportsStalled)
	w.U64(m.ResumeEpoch)
	return w.B
}

// DecodeShardStatusMsg reverses ShardStatusMsg.Encode. Every count is
// gated against the bytes remaining, the OK flag must be canonical,
// and trailing bytes are an error.
func DecodeShardStatusMsg(data []byte) (*ShardStatusMsg, error) {
	r := codec.NewReader(data)
	m := &ShardStatusMsg{}
	m.Op = r.U8()
	okFlag := r.U8()
	if r.Err() != nil {
		return nil, errShort
	}
	if m.Op < ShardOpCheck || m.Op > ShardOpResume {
		return nil, fmt.Errorf("protocol: bad shard status op %d", m.Op)
	}
	if okFlag > 1 {
		return nil, fmt.Errorf("protocol: bad shard status ok flag %d", okFlag)
	}
	m.OK = okFlag == 1
	nv := r.Count(4)
	if r.Err() != nil || nv > maxStatusViolations {
		return nil, fmt.Errorf("protocol: shard status violation count %d exceeds payload", nv)
	}
	for i := 0; i < nv; i++ {
		m.Violations = append(m.Violations, string(r.Bytes(maxStatusViolationLen)))
	}
	if nk := r.Count(8); nk > 0 {
		m.KFIDs = make([]uint64, nk)
		for i := range m.KFIDs {
			m.KFIDs[i] = r.U64()
		}
	}
	if na := r.Count(anchorStateBytes); na > 0 {
		m.Anchors = make([]AnchorState, na)
		for i := range m.Anchors {
			m.Anchors[i].ID = r.U64()
			m.Anchors[i].Pose = r.Pose()
		}
	}
	m.Stats.KeyFrames = r.U64()
	m.Stats.MapPoints = r.U64()
	m.Stats.Sessions = r.U64()
	m.Stats.ImportsInFlight = r.U64()
	m.Stats.Imports = r.U64()
	m.Stats.ImportRollbacks = r.U64()
	m.Stats.ImportsStalled = r.U64()
	m.ResumeEpoch = r.U64()
	if r.Err() != nil {
		return nil, errShort
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes in shard status", r.Len())
	}
	return m, nil
}
