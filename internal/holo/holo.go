// Package holo implements the AR content layer on top of the shared
// map: holograms (virtual objects) anchored at positions and
// orientations in the global coordinate frame. This is the layer the
// paper's motivation (Figs. 1, 2 and 11) is about: because every
// client localizes in the same merged map, an anchor placed by one
// user renders at the same real-world spot for all of them, and "the
// only information shared between users is the coordinates of the
// hologram" (§5.6).
package holo

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"slamshare/internal/codec"
	"slamshare/internal/geom"
)

// Anchor is a virtual object pinned to the shared map's frame.
type Anchor struct {
	ID    uint64
	Label string
	Pose  geom.SE3 // anchor-to-world in the shared frame
	Owner uint32   // client that placed it
	Stamp float64  // placement time, seconds
}

// Registry is the set of anchors of one AR session. It is safe for
// concurrent use by multiple client handlers.
type Registry struct {
	mu      sync.RWMutex
	anchors map[uint64]*Anchor
	next    uint64
}

// NewRegistry returns an empty anchor registry.
func NewRegistry() *Registry {
	return &Registry{anchors: make(map[uint64]*Anchor), next: 1}
}

// Place creates an anchor at the given pose in the shared frame and
// returns its id.
func (r *Registry) Place(label string, pose geom.SE3, owner uint32, stamp float64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.next
	r.next++
	r.anchors[id] = &Anchor{ID: id, Label: label, Pose: pose, Owner: owner, Stamp: stamp}
	return id
}

// PlaceAhead anchors an object at the given distance in front of a
// device pose (body-to-world) — how the examples and §5.6 place
// holograms.
func (r *Registry) PlaceAhead(label string, devicePose geom.SE3, distance float64, owner uint32, stamp float64) uint64 {
	pose := geom.SE3{
		R: devicePose.R,
		T: devicePose.Apply(geom.Vec3{Z: distance}),
	}
	return r.Place(label, pose, owner, stamp)
}

// Get returns an anchor by id.
func (r *Registry) Get(id uint64) (Anchor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.anchors[id]
	if !ok {
		return Anchor{}, false
	}
	return *a, true
}

// Remove deletes an anchor; only the owner may remove it (owner 0 is
// the session administrator and may remove anything).
func (r *Registry) Remove(id uint64, requester uint32) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.anchors[id]
	if !ok {
		return fmt.Errorf("holo: unknown anchor %d", id)
	}
	if requester != 0 && a.Owner != requester {
		return fmt.Errorf("holo: client %d does not own anchor %d", requester, id)
	}
	delete(r.anchors, id)
	return nil
}

// Move re-poses an anchor (e.g. a user refining an obstacle position,
// §4.1 step 3).
func (r *Registry) Move(id uint64, pose geom.SE3) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.anchors[id]
	if !ok {
		return fmt.Errorf("holo: unknown anchor %d", id)
	}
	a.Pose = pose
	return nil
}

// Len returns the number of anchors.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.anchors)
}

// All returns the anchors sorted by id.
func (r *Registry) All() []Anchor {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Anchor, 0, len(r.anchors))
	for _, a := range r.anchors {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Visible is an anchor as seen from a device: its screen-space
// direction and distance.
type Visible struct {
	Anchor   Anchor
	Distance float64
	// Bearing is the angle between the device's optical axis and the
	// anchor direction, radians.
	Bearing float64
}

// VisibleFrom returns the anchors within maxDist of the device pose
// and within the given half field of view (radians), nearest first —
// what the device's display should render.
func (r *Registry) VisibleFrom(devicePose geom.SE3, maxDist, halfFOV float64) []Visible {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fwd := devicePose.R.Rotate(geom.Vec3{Z: 1})
	var out []Visible
	for _, a := range r.anchors {
		d := a.Pose.T.Sub(devicePose.T)
		dist := d.Norm()
		if dist > maxDist || dist == 0 {
			continue
		}
		cos := d.Scale(1 / dist).Dot(fwd)
		bearing := math.Acos(geom.Clamp(cos, -1, 1))
		if bearing > halfFOV {
			continue
		}
		out = append(out, Visible{Anchor: *a, Distance: dist, Bearing: bearing})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Distance < out[j].Distance })
	return out
}

// ApplyTransform moves every anchor through a similarity transform —
// called if the shared frame itself is re-based (e.g. a global loop
// closure re-anchors the map).
func (r *Registry) ApplyTransform(s geom.Sim3) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.anchors {
		a.Pose = geom.SE3{
			R: s.R.Mul(a.Pose.R).Normalized(),
			T: s.Apply(a.Pose.T),
		}
	}
}

// ErrCorrupt reports an undecodable registry payload.
var ErrCorrupt = errors.New("holo: corrupt registry encoding")

// Encode serializes the registry (for session persistence or late-
// joining clients).
func (r *Registry) Encode() []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	anchors := make([]*Anchor, 0, len(r.anchors))
	for _, a := range r.anchors {
		anchors = append(anchors, a)
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].ID < anchors[j].ID })
	var w codec.Writer
	w.U64(uint64(len(anchors)))
	w.U64(r.next)
	for _, a := range anchors {
		w.U64(a.ID)
		w.U64(uint64(len(a.Label)))
		w.B = append(w.B, a.Label...)
		w.Pose(a.Pose)
		w.U64(uint64(a.Owner))
		w.F64(a.Stamp)
	}
	return w.B
}

// EncodeAnchors serializes a bare anchor list — the boundary-exchange
// payload a shard sends alongside an exported map region. It reuses
// the registry encoding with a zero next-ID slot (the importer keeps
// its own allocator).
func EncodeAnchors(anchors []Anchor) []byte {
	tmp := NewRegistry()
	for i := range anchors {
		a := anchors[i]
		tmp.anchors[a.ID] = &a
	}
	tmp.next = 0
	return tmp.Encode()
}

// DecodeAnchors reverses EncodeAnchors.
func DecodeAnchors(data []byte) ([]Anchor, error) {
	if len(data) == 0 {
		return nil, nil
	}
	r, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return r.All(), nil
}

// Restore upserts an anchor preserving its identity — used when a
// boundary import carries anchors from another shard. Unlike Place it
// never assigns a new ID; it bumps the allocator past the restored ID
// so later Place calls cannot collide with it.
func (r *Registry) Restore(a Anchor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := a
	r.anchors[a.ID] = &cp
	if a.ID >= r.next {
		r.next = a.ID + 1
	}
}

// OwnedBy returns the anchors placed by one client, sorted by ID —
// the set that migrates with that client's session in a handoff.
func (r *Registry) OwnedBy(owner uint32) []Anchor {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Anchor
	for _, a := range r.anchors {
		if a.Owner == owner {
			out = append(out, *a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Limits a registry payload may claim before it is called corrupt.
const (
	maxAnchors  = 1 << 20
	maxLabelLen = 1 << 16
)

// Decode reconstructs a registry serialized by Encode.
func Decode(data []byte) (*Registry, error) {
	rd := codec.NewReader(data)
	n := rd.U64()
	next := rd.U64()
	if rd.Err() != nil || n > maxAnchors {
		return nil, ErrCorrupt
	}
	r := NewRegistry()
	r.next = next
	for i := uint64(0); i < n; i++ {
		a := &Anchor{}
		a.ID = rd.U64()
		ln := rd.U64()
		if ln > maxLabelLen {
			return nil, ErrCorrupt
		}
		a.Label = string(rd.Raw(int(ln)))
		a.Pose = rd.Pose()
		a.Owner = uint32(rd.U64())
		a.Stamp = rd.F64()
		if rd.Err() != nil {
			return nil, ErrCorrupt
		}
		r.anchors[a.ID] = a
	}
	return r, nil
}
