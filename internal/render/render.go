// Package render synthesizes the camera frames an AR device would
// capture: it projects the world's landmarks through a pinhole camera
// and draws each one as a unique, high-contrast screen-aligned patch
// whose appearance is deterministic in the landmark's seed. The result
// is that a real FAST detector finds a corner at every visible
// landmark and a real BRIEF descriptor of it is stable across views —
// the property that makes the full SLAM pipeline (extraction, matching,
// triangulation, merging) run end-to-end on genuinely synthetic pixels.
//
// Substitution note (see DESIGN.md): patches are drawn screen-aligned
// and depth-sorted (painter's algorithm) but not occluded by geometry,
// and do not scale with perspective. This preserves the code paths the
// paper exercises while keeping the generator tractable.
package render

import (
	"sync"

	"slamshare/internal/camera"
	"slamshare/internal/geom"
	"slamshare/internal/img"
	"slamshare/internal/worldgen"
)

// Config controls frame synthesis.
type Config struct {
	PatchRadius int     // half-size of the landmark patch in pixels
	CellSize    int     // pixels per random intensity cell inside a patch
	NoiseSigma  float64 // per-frame additive pixel noise stddev
	MinDepth    float64 // metres
	MaxDepth    float64 // metres
	Background  byte    // background intensity
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		PatchRadius: 10,
		CellSize:    3,
		NoiseSigma:  1.0,
		MinDepth:    0.3,
		MaxDepth:    35,
		Background:  96,
	}
}

// VehicularConfig extends the visibility range for street scenes.
func VehicularConfig() Config {
	c := DefaultConfig()
	c.MaxDepth = 70
	return c
}

// Projection records where a landmark landed in a rendered frame —
// ground truth used by tests and metrics, never by the SLAM path.
type Projection struct {
	Landmark worldgen.Landmark
	Px       geom.Vec2
	Depth    float64
}

// Renderer draws frames of one world through one camera rig.
type Renderer struct {
	World *worldgen.World
	Rig   camera.Rig
	Cfg   Config

	// patches caches landmark appearance by seed. Clients replaying one
	// Sequence share its Renderer, so the cache is guarded.
	mu      sync.RWMutex
	patches map[uint64][]byte
}

// New returns a renderer.
func New(w *worldgen.World, rig camera.Rig, cfg Config) *Renderer {
	if cfg.PatchRadius <= 0 {
		cfg = DefaultConfig()
	}
	return &Renderer{World: w, Rig: rig, Cfg: cfg, patches: make(map[uint64][]byte)}
}

// Render synthesizes the left-eye frame at the given camera-to-world
// pose. frameSeed varies the additive noise between frames.
func (r *Renderer) Render(pose geom.SE3, frameSeed uint64) *img.Gray {
	return r.renderEye(pose, frameSeed)
}

// RenderStereo synthesizes a rectified stereo pair. The right eye is
// displaced by the rig baseline along the camera +X axis.
func (r *Renderer) RenderStereo(pose geom.SE3, frameSeed uint64) (left, right *img.Gray) {
	left = r.renderEye(pose, frameSeed)
	rp := geom.SE3{R: pose.R, T: pose.Apply(geom.Vec3{X: r.Rig.Baseline})}
	right = r.renderEye(rp, frameSeed^0xABCDEF)
	return left, right
}

func (r *Renderer) renderEye(pose geom.SE3, frameSeed uint64) *img.Gray {
	in := r.Rig.Intr
	frame := img.New(in.Width, in.Height)
	frame.Fill(r.Cfg.Background)

	vis := r.World.Visible(pose, r.Rig, r.Cfg.MinDepth, r.Cfg.MaxDepth)
	tcw := pose.Inverse()
	// Painter's algorithm: draw farthest first so near patches win.
	for i := len(vis) - 1; i >= 0; i-- {
		lm := vis[i]
		pc := tcw.Apply(lm.Pos)
		px, ok := in.Project(pc)
		if !ok {
			continue
		}
		r.drawPatch(frame, int(px.X+0.5), int(px.Y+0.5), lm.Seed)
	}
	if r.Cfg.NoiseSigma > 0 {
		addNoise(frame, r.Cfg.NoiseSigma, frameSeed)
	}
	return frame
}

// Truth returns the ground-truth projections of the left eye at pose,
// nearest first. SLAM never sees this; tests and metrics do.
func (r *Renderer) Truth(pose geom.SE3) []Projection {
	vis := r.World.Visible(pose, r.Rig, r.Cfg.MinDepth, r.Cfg.MaxDepth)
	tcw := pose.Inverse()
	out := make([]Projection, 0, len(vis))
	for _, lm := range vis {
		pc := tcw.Apply(lm.Pos)
		px, ok := r.Rig.Intr.Project(pc)
		if !ok {
			continue
		}
		out = append(out, Projection{Landmark: lm, Px: px, Depth: pc.Z})
	}
	return out
}

// patch returns (and caches) the appearance of a landmark: a square of
// random intensity cells with a guaranteed FAST-corner structure at the
// center (dark center pixel inside a bright radius-3 ring).
func (r *Renderer) patch(seed uint64) []byte {
	r.mu.RLock()
	p, ok := r.patches[seed]
	r.mu.RUnlock()
	if ok {
		return p
	}
	rad := r.Cfg.PatchRadius
	side := 2*rad + 1
	p = make([]byte, side*side)
	cell := r.Cfg.CellSize
	if cell < 1 {
		cell = 3
	}
	s := seed
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	// Random cells spanning the full intensity range.
	cells := (side + cell - 1) / cell
	vals := make([]byte, cells*cells)
	for i := range vals {
		vals[i] = byte(40 + next()%176) // 40..215, avoids clipping with noise
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			p[y*side+x] = vals[(y/cell)*cells+(x/cell)]
		}
	}
	// Corner structure at the center: bright ring of radius 3 around a
	// dark center so FAST-9 fires with a wide threshold margin, with
	// the interior brightened to keep the ring contiguous in intensity.
	set := func(dx, dy int, v byte) {
		p[(rad+dy)*side+(rad+dx)] = v
	}
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			if dx*dx+dy*dy <= 4 {
				set(dx, dy, 15)
			}
		}
	}
	for _, o := range fastCircle {
		set(o[0], o[1], 235)
	}
	set(0, 0, 10)
	// A racing miss computed the same bytes; either copy serves.
	r.mu.Lock()
	r.patches[seed] = p
	r.mu.Unlock()
	return p
}

// fastCircle is the 16-pixel Bresenham circle of radius 3 used by
// FAST-9 (same offsets as internal/feature).
var fastCircle = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1},
	{3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1},
	{-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

func (r *Renderer) drawPatch(frame *img.Gray, cx, cy int, seed uint64) {
	rad := r.Cfg.PatchRadius
	side := 2*rad + 1
	p := r.patch(seed)
	for dy := -rad; dy <= rad; dy++ {
		y := cy + dy
		if y < 0 || y >= frame.H {
			continue
		}
		row := frame.Row(y)
		prow := p[(dy+rad)*side:]
		for dx := -rad; dx <= rad; dx++ {
			x := cx + dx
			if x < 0 || x >= frame.W {
				continue
			}
			row[x] = prow[dx+rad]
		}
	}
}

// addNoise perturbs every pixel with an approximately Gaussian value of
// the given stddev, deterministically in seed.
func addNoise(frame *img.Gray, sigma float64, seed uint64) {
	s := seed
	for i := range frame.Pix {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		// Sum of four uniform bytes approximates a Gaussian (CLT):
		// mean 510, stddev ~147; normalize to a unit normal.
		sum := float64(byte(z)) + float64(byte(z>>8)) + float64(byte(z>>16)) + float64(byte(z>>24))
		v := float64(frame.Pix[i]) + (sum-510)/147*sigma
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		frame.Pix[i] = byte(v)
	}
}
