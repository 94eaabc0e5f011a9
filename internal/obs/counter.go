package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter, cheap enough
// for hot paths (journal records, checkpoint counts). The zero value
// is ready to use, and a nil *Counter (what a nil Registry hands out)
// counts nothing.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge holds one float64 value updated atomically (e.g. the
// recovery-time ATE delta). The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the stored value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }
