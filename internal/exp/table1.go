package exp

import (
	"fmt"
	"io"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/server"
	"slamshare/internal/wire"
)

// Table1Row is one row of Table 1: map size versus keyframe count on
// MH04.
type Table1Row struct {
	KeyFrames int
	MapPoints int
	SizeMB    float64
}

// Table1 runs a single client over MH04 and snapshots the map's
// serialized size at the paper's keyframe counts. full extends the run
// toward the paper's 210-keyframe final row (expensive).
func Table1(w io.Writer, full bool) ([]Table1Row, error) {
	seq := dataset.MH04(camera.Stereo)
	checkpoints := []int{10, 20, 30, 40, 50}
	if full {
		checkpoints = append(checkpoints, 210)
	}
	stride := 2
	maxFrames := seq.FrameCount()
	if !full {
		maxFrames = scale(1600)
	}
	r, err := NewRunner(server.DefaultConfig(), float64(stride)/seq.FPS, &Participant{Seq: seq, Stride: stride})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var rows []Table1Row
	r.OnStep = func(int, float64) bool {
		g := r.Srv.Global()
		if g.NKeyFrames() >= checkpoints[len(rows)] {
			rows = append(rows, Table1Row{
				KeyFrames: g.NKeyFrames(),
				MapPoints: g.NMapPoints(),
				SizeMB:    float64(wire.MapSize(g)) / (1 << 20),
			})
		}
		return len(rows) == len(checkpoints)
	}
	if err := r.Run((maxFrames + stride - 1) / stride); err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Table 1: EuRoC MH04 map size vs keyframes")
	tablef(w, "%-18s %-18s %-18s", "No. of Keyframes", "No. of Mappoints", "Map Size (MBytes)")
	for _, row := range rows {
		tablef(w, "%-18d %-18d %-18.2f", row.KeyFrames, row.MapPoints, row.SizeMB)
	}
	return rows, nil
}
