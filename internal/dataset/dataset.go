// Package dataset defines the named evaluation sequences that stand in
// for the paper's EuRoC and KITTI recordings (§5.1): procedurally
// generated worlds and trajectories with the same names, durations,
// frame counts and sensor configurations, so every table and figure has
// its analogue. MH04/MH05 share one machine-hall world (their clients'
// maps must merge, Fig. 10a); KITTI sequences run through street
// corridors and can be split into per-client segments (Fig. 10c).
package dataset

import (
	"fmt"
	"sync"

	"slamshare/internal/camera"
	"slamshare/internal/geom"
	"slamshare/internal/img"
	"slamshare/internal/imu"
	"slamshare/internal/metrics"
	"slamshare/internal/render"
	"slamshare/internal/worldgen"
)

// Sequence is a synthetic dataset: world + trajectory + camera rig +
// IMU configuration. It provides rendered frames, IMU samples and
// ground-truth poses.
type Sequence struct {
	Name      string
	World     *worldgen.World
	Traj      worldgen.Trajectory
	Rig       camera.Rig
	FPS       float64
	IMURate   float64
	Noise     imu.NoiseConfig
	RenderCfg render.Config
	Seed      int64

	imuOnce    sync.Once
	imuSamples []imu.Sample
	rendOnce   sync.Once
	rend       *render.Renderer
}

// Duration returns the sequence length in seconds.
func (s *Sequence) Duration() float64 { return s.Traj.Duration() }

// FrameCount returns the number of camera frames.
func (s *Sequence) FrameCount() int { return int(s.Duration() * s.FPS) }

// FrameTime returns the capture time of frame i.
func (s *Sequence) FrameTime(i int) float64 { return float64(i) / s.FPS }

// GroundTruth returns the true camera-to-world pose at frame i.
func (s *Sequence) GroundTruth(i int) geom.SE3 {
	return s.Traj.PoseAt(s.FrameTime(i))
}

// TruthTrajectory returns the ground-truth camera centres of the
// frames 0, stride, 2*stride, ... below nFrames — what an estimated
// trajectory of those frames is scored against.
func (s *Sequence) TruthTrajectory(nFrames, stride int) metrics.Trajectory {
	var tr metrics.Trajectory
	for i := 0; i < nFrames && i < s.FrameCount(); i += stride {
		tr.Append(s.FrameTime(i), s.GroundTruth(i).T)
	}
	return tr
}

// Renderer returns the (cached) frame renderer for this sequence.
func (s *Sequence) Renderer() *render.Renderer {
	s.rendOnce.Do(func() {
		s.rend = render.New(s.World, s.Rig, s.RenderCfg)
	})
	return s.rend
}

// Frame renders the left-eye frame i.
func (s *Sequence) Frame(i int) *img.Gray {
	return s.Renderer().Render(s.GroundTruth(i), uint64(s.Seed)+uint64(i))
}

// StereoFrame renders the stereo pair for frame i. For mono rigs the
// right image is nil.
func (s *Sequence) StereoFrame(i int) (left, right *img.Gray) {
	if s.Rig.Mode != camera.Stereo {
		return s.Frame(i), nil
	}
	return s.Renderer().RenderStereo(s.GroundTruth(i), uint64(s.Seed)+uint64(i))
}

// IMU returns the full IMU sample stream (cached after first call).
func (s *Sequence) IMU() []imu.Sample {
	s.imuOnce.Do(func() {
		s.imuSamples = imu.Simulate(s.Traj, 0, s.Duration(), s.IMURate, s.Noise, s.Seed)
	})
	return s.imuSamples
}

// IMUBetween returns the IMU samples captured in [FrameTime(i),
// FrameTime(j)).
func (s *Sequence) IMUBetween(i, j int) []imu.Sample {
	all := s.IMU()
	t0, t1 := s.FrameTime(i), s.FrameTime(j)
	lo := 0
	for lo < len(all) && all[lo].T < t0 {
		lo++
	}
	hi := lo
	for hi < len(all) && all[hi].T < t1 {
		hi++
	}
	return all[lo:hi]
}

// Split divides the sequence into n equal time segments sharing the
// same world — the per-client splits of KITTI-05 in Fig. 10c.
func (s *Sequence) Split(n int) []*Sequence {
	out := make([]*Sequence, n)
	dur := s.Duration()
	for i := 0; i < n; i++ {
		seg := &worldgen.SegmentTrajectory{
			Inner: s.Traj,
			T0:    dur * float64(i) / float64(n),
			T1:    dur * float64(i+1) / float64(n),
		}
		out[i] = &Sequence{
			Name:      fmt.Sprintf("%s-part%d", s.Name, i+1),
			World:     s.World,
			Traj:      seg,
			Rig:       s.Rig,
			FPS:       s.FPS,
			IMURate:   s.IMURate,
			Noise:     s.Noise,
			RenderCfg: s.RenderCfg,
			Seed:      s.Seed + int64(i+1)*7919,
		}
	}
	return out
}

// HalfRes returns a copy of seq with the rig scaled to half resolution
// in each dimension. The chaos and cluster tiers run many frames per
// client; quarter-size images keep them inside a CI budget while
// exercising the identical pipeline.
func HalfRes(seq *Sequence) *Sequence {
	in := seq.Rig.Intr
	in.Fx /= 2
	in.Fy /= 2
	in.Cx /= 2
	in.Cy /= 2
	in.Width /= 2
	in.Height /= 2
	return &Sequence{
		Name:      seq.Name + "-half",
		World:     seq.World,
		Traj:      seq.Traj,
		Rig:       rigFor(in, seq.Rig.Mode, seq.Rig.Baseline),
		FPS:       seq.FPS,
		IMURate:   seq.IMURate,
		Noise:     seq.Noise,
		RenderCfg: seq.RenderCfg,
		Seed:      seq.Seed,
	}
}

// sharedMachineHall is the single machine-hall world all MH sequences
// observe, so multi-client maps can merge.
var (
	mhOnce sync.Once
	mhWild *worldgen.World
)

func machineHall() *worldgen.World {
	mhOnce.Do(func() { mhWild = worldgen.MachineHall(0xEB0C, 110) })
	return mhWild
}

const euRoCBaseline = 0.11 // metres, EuRoC stereo rig

// MH04 is the EuRoC MH04-like drone sequence: 68 s at 30 FPS (2032
// frames in the original). Mode selects mono or stereo.
func MH04(mode camera.Mode) *Sequence {
	// A sweep through the hall: start south-west, climb, loop the
	// perimeter counterclockwise, return through the middle.
	wp := []geom.Vec3{
		{X: -9, Y: -6, Z: 1.2}, {X: -5, Y: -6.5, Z: 1.6}, {X: 0, Y: -6, Z: 2.0},
		{X: 5, Y: -5.5, Z: 2.4}, {X: 9, Y: -4, Z: 2.6}, {X: 10, Y: 0, Z: 2.8},
		{X: 9.5, Y: 4, Z: 3.0}, {X: 6, Y: 6.5, Z: 3.2}, {X: 1, Y: 7, Z: 3.0},
		{X: -4, Y: 6.5, Z: 2.6}, {X: -8.5, Y: 5, Z: 2.2}, {X: -9.5, Y: 1, Z: 2.0},
		{X: -7, Y: -2, Z: 1.8}, {X: -3, Y: -4, Z: 1.6}, {X: 1, Y: -4.5, Z: 1.5},
		{X: 4, Y: -3, Z: 1.6}, {X: 5, Y: 0, Z: 1.8},
	}
	return euroc("MH04", wp, 68.0/float64(len(wp)-1), mode, 101)
}

// MH05 is the EuRoC MH05-like drone sequence: 75 s, same hall as MH04
// but a different path with substantial overlap (Fig. 10a merges the
// two).
func MH05(mode camera.Mode) *Sequence {
	wp := []geom.Vec3{
		{X: -9, Y: -6, Z: 1.4}, {X: -6, Y: -4, Z: 1.8}, {X: -2, Y: -2.5, Z: 2.2},
		{X: 2, Y: -2, Z: 2.4}, {X: 6, Y: -3, Z: 2.6}, {X: 9, Y: -4.5, Z: 2.4},
		{X: 10, Y: -1, Z: 2.6}, {X: 9, Y: 3, Z: 2.8}, {X: 7, Y: 6, Z: 3.0},
		{X: 3, Y: 7.5, Z: 2.8}, {X: -1, Y: 6.5, Z: 2.4}, {X: -5, Y: 4.5, Z: 2.2},
		{X: -8, Y: 2, Z: 2.0}, {X: -9, Y: -1.5, Z: 1.8}, {X: -6.5, Y: -4.5, Z: 1.6},
		{X: -2.5, Y: -5.5, Z: 1.5}, {X: 2, Y: -5, Z: 1.6}, {X: 6, Y: -4, Z: 1.8},
	}
	return euroc("MH05", wp, 75.0/float64(len(wp)-1), mode, 102)
}

// V202 is a Vicon-room-like orbit sequence (the V202 dataset in
// Fig. 5 and Fig. 8): a small room, tighter motion.
func V202(mode camera.Mode) *Sequence {
	world := worldgen.ViconRoom(0x202, 150)
	traj := &worldgen.OrbitTrajectory{
		Center: geom.Vec3{Z: 1.2},
		Radius: 2.6,
		Height: 0.6,
		Omega:  0.35,
		Dur:    46,
	}
	return &Sequence{
		Name:      "V202",
		World:     world,
		Traj:      traj,
		Rig:       rigFor(camera.EuRoCIntrinsics(), mode, euRoCBaseline),
		FPS:       30,
		IMURate:   200,
		Noise:     imu.ConsumerGradeNoise(),
		RenderCfg: render.DefaultConfig(),
		Seed:      103,
	}
}

// TUMfr1 is a TUM-fr1-like handheld sequence over a desk-scale scene.
func TUMfr1(mode camera.Mode) *Sequence {
	world := worldgen.ViconRoom(0xF41, 170)
	traj := &worldgen.OrbitTrajectory{
		Center: geom.Vec3{Z: 0.9},
		Radius: 2.0,
		Height: 0.5,
		Omega:  0.3,
		Dur:    30,
	}
	return &Sequence{
		Name:      "TUM-fr1",
		World:     world,
		Traj:      traj,
		Rig:       rigFor(camera.TUMIntrinsics(), mode, 0.08),
		FPS:       30,
		IMURate:   200,
		Noise:     imu.ConsumerGradeNoise(),
		RenderCfg: render.DefaultConfig(),
		Seed:      104,
	}
}

func euroc(name string, wp []geom.Vec3, dt float64, mode camera.Mode, seed int64) *Sequence {
	traj := worldgen.NewSplineTrajectory(worldgen.NewSpline(wp, dt))
	return &Sequence{
		Name:      name,
		World:     machineHall(),
		Traj:      traj,
		Rig:       rigFor(camera.EuRoCIntrinsics(), mode, euRoCBaseline),
		FPS:       30,
		IMURate:   200,
		Noise:     imu.ConsumerGradeNoise(),
		RenderCfg: render.DefaultConfig(),
		Seed:      seed,
	}
}

const kittiBaseline = 0.54 // metres, KITTI stereo rig

var (
	k00Once, k05Once   sync.Once
	k00World, k05World *worldgen.World
	k00Path, k05Path   *worldgen.Spline
)

// KITTI00 is a KITTI-00-like vehicular sequence: 151 s of urban
// driving through a street grid with a loop closure.
func KITTI00(mode camera.Mode) *Sequence {
	k00Once.Do(func() {
		wp := []geom.Vec3{
			{X: 0, Y: 0, Z: 1.65}, {X: 80, Y: 0, Z: 1.65}, {X: 160, Y: 10, Z: 1.65},
			{X: 240, Y: 40, Z: 1.65}, {X: 280, Y: 110, Z: 1.65}, {X: 260, Y: 180, Z: 1.65},
			{X: 190, Y: 220, Z: 1.65}, {X: 110, Y: 230, Z: 1.65}, {X: 40, Y: 200, Z: 1.65},
			{X: 0, Y: 130, Z: 1.65}, {X: -10, Y: 60, Z: 1.65}, {X: 0, Y: 0, Z: 1.65},
			{X: 60, Y: -5, Z: 1.65}, {X: 120, Y: 5, Z: 1.65},
		}
		k00Path = worldgen.NewSpline(wp, 151.0/float64(len(wp)-1))
		k00World = worldgen.StreetCorridor(0xC00, k00Path, 2.5)
	})
	traj := worldgen.NewSplineTrajectory(k00Path)
	return &Sequence{
		Name:      "KITTI-00",
		World:     k00World,
		Traj:      traj,
		Rig:       rigFor(camera.KITTIIntrinsics(), mode, kittiBaseline),
		FPS:       30,
		IMURate:   200,
		Noise:     imu.ConsumerGradeNoise(),
		RenderCfg: render.VehicularConfig(),
		Seed:      105,
	}
}

// KITTI05 is a KITTI-05-like vehicular sequence: 92 s, a loop through
// a 500 x 600 m area (split into three clients in Fig. 10c).
func KITTI05(mode camera.Mode) *Sequence {
	k05Once.Do(func() {
		wp := []geom.Vec3{
			{X: 0, Y: 0, Z: 1.65}, {X: 90, Y: 10, Z: 1.65}, {X: 180, Y: 0, Z: 1.65},
			{X: 270, Y: 30, Z: 1.65}, {X: 330, Y: 100, Z: 1.65}, {X: 340, Y: 190, Z: 1.65},
			{X: 280, Y: 260, Z: 1.65}, {X: 190, Y: 280, Z: 1.65}, {X: 100, Y: 260, Z: 1.65},
			{X: 30, Y: 200, Z: 1.65}, {X: 0, Y: 110, Z: 1.65}, {X: 10, Y: 30, Z: 1.65},
		}
		k05Path = worldgen.NewSpline(wp, 92.0/float64(len(wp)-1))
		k05World = worldgen.StreetCorridor(0xC05, k05Path, 2.5)
	})
	traj := worldgen.NewSplineTrajectory(k05Path)
	return &Sequence{
		Name:      "KITTI-05",
		World:     k05World,
		Traj:      traj,
		Rig:       rigFor(camera.KITTIIntrinsics(), mode, kittiBaseline),
		FPS:       30,
		IMURate:   200,
		Noise:     imu.ConsumerGradeNoise(),
		RenderCfg: render.VehicularConfig(),
		Seed:      106,
	}
}

// The shared city grid all CITY sequences observe: 4x4 blocks of
// 60 m, so a compressed "hour" of vehicular loops and pedestrian
// strolls covers distinct neighbourhoods that go cold independently —
// the workload the map-lifecycle soak runs.
const (
	CityBlocks = 4
	CityBlockM = 60.0
)

var (
	cityOnce  sync.Once
	cityWorld *worldgen.World
)

func cityGrid() *worldgen.World {
	cityOnce.Do(func() { cityWorld = worldgen.CityGrid(0xC17F, CityBlocks, CityBlockM) })
	return cityWorld
}

// CityRoute builds a sequence through the shared city grid along the
// given intersection route ((i, j) street indices). speed is metres
// per second — ~11 for a vehicle, ~1.4 for a pedestrian AR user; the
// camera height follows the platform.
func CityRoute(name string, route [][2]int, speed float64, mode camera.Mode, seed int64) *Sequence {
	if speed <= 0 {
		speed = 10
	}
	height := 1.65
	if speed < 4 { // pedestrian: head height
		height = 1.5
	}
	dt := CityBlockM / speed
	path := worldgen.GridRoute(route, CityBlockM, dt, height)
	return &Sequence{
		Name:      name,
		World:     cityGrid(),
		Traj:      worldgen.NewSplineTrajectory(path),
		Rig:       rigFor(camera.KITTIIntrinsics(), mode, kittiBaseline),
		FPS:       30,
		IMURate:   200,
		Noise:     imu.ConsumerGradeNoise(),
		RenderCfg: render.VehicularConfig(),
		Seed:      seed,
	}
}

// City00 is a vehicular loop around the city grid's perimeter.
func City00(mode camera.Mode) *Sequence {
	return CityRoute("CITY-00", [][2]int{
		{0, 0}, {2, 0}, {4, 0}, {4, 2}, {4, 4}, {2, 4}, {0, 4}, {0, 2}, {0, 0}, {1, 0},
	}, 11, mode, 107)
}

// City01 is a pedestrian stroll through the grid's inner streets.
func City01(mode camera.Mode) *Sequence {
	return CityRoute("CITY-01", [][2]int{
		{1, 1}, {2, 1}, {2, 2}, {3, 2}, {3, 3}, {2, 3}, {2, 2}, {1, 2}, {1, 1},
	}, 1.4, mode, 108)
}

func rigFor(in camera.Intrinsics, mode camera.Mode, baseline float64) camera.Rig {
	if mode == camera.Stereo {
		return camera.NewStereoRig(in, baseline)
	}
	return camera.NewMonoRig(in)
}

// ByName returns the sequence with the given paper name.
func ByName(name string, mode camera.Mode) (*Sequence, error) {
	switch name {
	case "MH04":
		return MH04(mode), nil
	case "MH05":
		return MH05(mode), nil
	case "V202":
		return V202(mode), nil
	case "TUM-fr1":
		return TUMfr1(mode), nil
	case "KITTI-00":
		return KITTI00(mode), nil
	case "KITTI-05":
		return KITTI05(mode), nil
	case "CITY-00":
		return City00(mode), nil
	case "CITY-01":
		return City01(mode), nil
	}
	return nil, fmt.Errorf("dataset: unknown sequence %q", name)
}
