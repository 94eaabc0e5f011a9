package netem

// Fault injection: a layer under the shaping discipline that emulates
// the ways real links die — abrupt cuts, cuts mid-message after a byte
// budget, and partitions. The chaos harness (internal/chaos) scripts
// scenarios with it; every fault is deterministic, so a scripted
// scenario over a deterministic byte stream replays the same faults.

import (
	"errors"
	"net"
	"sync"
)

// ErrInjectedReset is returned by FaultConn I/O after an injected
// connection reset.
var ErrInjectedReset = errors.New("netem: injected connection reset")

// FaultConfig configures the injected faults for one endpoint.
type FaultConfig struct {
	// ResetAfterBytes cuts the connection mid-message once the total
	// bytes written crosses this threshold (0 = disabled): the write
	// that crosses it is truncated at the boundary, then the underlying
	// connection is closed — the peer sees a partial frame.
	ResetAfterBytes int64
}

// FaultStats counts the faults an endpoint has injected, for test
// assertions.
type FaultStats struct {
	Resets  int
	Written int64
}

// FaultConn wraps a net.Conn with injected write-side faults. Reads
// pass through untouched (a reset closes the underlying connection, so
// both directions die together, like a RST).
type FaultConn struct {
	net.Conn
	cfg FaultConfig

	mu     sync.Mutex
	frozen bool
	thaw   chan struct{}
	failed bool
	stats  FaultStats
}

// WrapFault applies fault injection to a connection. Compose with Wrap
// to get both shaping and faults: WrapFault(Wrap(conn, shape), faults).
func WrapFault(inner net.Conn, cfg FaultConfig) *FaultConn {
	return &FaultConn{Conn: inner, cfg: cfg, thaw: make(chan struct{})}
}

// Stats returns a copy of the endpoint's fault counters.
func (c *FaultConn) Stats() FaultStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Cut deterministically resets the connection now: subsequent I/O on
// either side fails. The harness uses it for scripted crashes.
func (c *FaultConn) Cut() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reset()
}

// Freeze blocks all writes until Thaw, emulating a scripted partition.
func (c *FaultConn) Freeze() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.frozen {
		c.frozen = true
		c.thaw = make(chan struct{})
	}
}

// Thaw lifts a Freeze.
func (c *FaultConn) Thaw() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frozen {
		c.frozen = false
		close(c.thaw)
	}
}

// reset closes the inner connection and latches the failure. Callers
// hold c.mu.
func (c *FaultConn) reset() {
	if !c.failed {
		c.failed = true
		c.stats.Resets++
		c.Conn.Close()
	}
}

// Write applies the configured faults, then forwards to the inner
// connection.
func (c *FaultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	for c.frozen {
		ch := c.thaw
		c.mu.Unlock()
		<-ch
		c.mu.Lock()
	}
	if c.failed {
		c.mu.Unlock()
		return 0, ErrInjectedReset
	}
	// Mid-message cut: truncate at the byte budget, then reset.
	if c.cfg.ResetAfterBytes > 0 && c.stats.Written+int64(len(p)) >= c.cfg.ResetAfterBytes {
		keep := c.cfg.ResetAfterBytes - c.stats.Written
		if keep < 0 {
			keep = 0
		}
		var n int
		var err error
		if keep > 0 {
			n, err = c.Conn.Write(p[:keep])
			c.stats.Written += int64(n)
		}
		c.reset()
		c.mu.Unlock()
		if err == nil {
			err = ErrInjectedReset
		}
		return n, err
	}
	c.mu.Unlock()

	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.stats.Written += int64(n)
	c.mu.Unlock()
	return n, err
}

// Read forwards to the inner connection, surfacing ErrInjectedReset
// after a reset for a recognizable failure.
func (c *FaultConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.mu.Lock()
		failed := c.failed
		c.mu.Unlock()
		if failed {
			err = ErrInjectedReset
		}
	}
	return n, err
}
