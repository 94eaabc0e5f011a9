package main

import (
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one frame
// share Frame; Parent is the ID of the span that caused it (0 = root).
// Start and End are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Frame  int    `json:"frame"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A recorder is
// owned by one goroutine; a nil recorder records nothing, which is how
// the untraced run (and the untraced half of the frames in a traced
// run) pays no tracing cost beyond a nil check.
type recorder struct {
	origin time.Time
	base   int // ID offset so several recorders merge without clashes
	spans  []span
}

func newRecorder(origin time.Time, base int) *recorder {
	return &recorder{origin: origin, base: base}
}

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent, frame int) int {
	if r == nil {
		return 0
	}
	id := r.base + len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Frame: frame, Name: name,
		Start: int64(time.Since(r.origin))})
	return id
}

// at returns the span with the given ID, for closing it at a time
// measured elsewhere.
func (r *recorder) at(id int) *span { return &r.spans[id-r.base-1] }

// since converts a wall-clock time to the recorder's nanoseconds.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.at(id).End = int64(time.Since(r.origin))
}

// add records a span whose interval was measured elsewhere, such as a
// stage duration a layer returns by value.
func (r *recorder) add(name string, parent, frame int, start, end int64) int {
	if r == nil {
		return 0
	}
	id := r.base + len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Frame: frame, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	hi := parent.Start
	for _, k := range kids {
		lo, end := k.Start, k.End
		if lo < hi {
			lo = hi
		}
		if end > parent.End {
			end = parent.End
		}
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return total
}

// spanMedians returns, per span name, the median over frames of the
// summed duration of that name's spans in one frame, in milliseconds.
// Frame numbers repeat across recorders, whose ID ranges tell them
// apart.
func spanMedians(spans []span) map[string]float64 {
	type frameKey struct{ recorder, frame int }
	perFrame := make(map[string]map[frameKey]int64)
	for _, s := range spans {
		m := perFrame[s.Name]
		if m == nil {
			m = make(map[frameKey]int64)
			perFrame[s.Name] = m
		}
		m[frameKey{s.ID / spanBase, s.Frame}] += s.dur()
	}
	out := make(map[string]float64, len(perFrame))
	for name, m := range perFrame {
		xs := make([]float64, 0, len(m))
		for _, d := range m {
			xs = append(xs, float64(d)/1e6)
		}
		out[name] = median(xs)
	}
	return out
}

// unaccountedMs is the median, over root spans named root, of the
// root's self time: the part of a frame no child span explains.
func unaccountedMs(spans []span, root string) float64 {
	self := selfTimes(spans)
	var xs []float64
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			xs = append(xs, float64(self[s.ID])/1e6)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
