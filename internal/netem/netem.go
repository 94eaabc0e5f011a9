// Package netem shapes connections the way the paper's testbed uses
// tc(8) (§5.1): added one-way delay and token-bucket bandwidth caps
// (300 ms, 18.7 Mbit/s, 9.4 Mbit/s in the experiments), applied over
// real net.Conn transports or in-process pipes.
package netem

import (
	"net"
	"sync"
	"time"
)

// Config is the shaping discipline for one direction of a link.
type Config struct {
	// Delay is the added one-way propagation delay.
	Delay time.Duration
	// BandwidthBps caps throughput in bits per second (0 = unlimited).
	BandwidthBps float64
	// Burst is the token bucket depth in bytes (default: 32 KiB).
	Burst int
}

// Unlimited is a no-op discipline.
var Unlimited = Config{}

// DelayOnly returns a discipline with only added delay.
func DelayOnly(d time.Duration) Config { return Config{Delay: d} }

// Mbps returns a discipline capped at the given megabits per second.
func Mbps(m float64) Config { return Config{BandwidthBps: m * 1e6} }

// chunk is a unit of delayed data in flight.
type chunk struct {
	data    []byte
	arrival time.Time
}

// Conn wraps an inner net.Conn with shaping: writes are paced by a
// token bucket (queuing delay, like tc's tbf) and reads are released
// only after the propagation delay (like tc's netem).
type Conn struct {
	net.Conn
	cfg Config

	writeMu sync.Mutex
	tokens  float64
	lastRef time.Time

	readMu  sync.Mutex
	pending []chunk
	buf     []byte
}

// Wrap applies the shaping discipline to a connection. Both the write
// pacing and the read delay act on this endpoint; shape both ends to
// emulate a symmetric link.
func Wrap(inner net.Conn, cfg Config) *Conn {
	if cfg.Burst <= 0 {
		cfg.Burst = 32 << 10
	}
	return &Conn{
		Conn:    inner,
		cfg:     cfg,
		tokens:  float64(cfg.Burst),
		lastRef: time.Now(),
	}
}

// Write paces the payload through the token bucket before handing it
// to the inner connection.
func (c *Conn) Write(p []byte) (int, error) {
	if c.cfg.BandwidthBps <= 0 {
		return c.Conn.Write(p)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	written := 0
	for written < len(p) {
		// Refill.
		now := time.Now()
		c.tokens += c.cfg.BandwidthBps / 8 * now.Sub(c.lastRef).Seconds()
		if c.tokens > float64(c.cfg.Burst) {
			c.tokens = float64(c.cfg.Burst)
		}
		c.lastRef = now
		if c.tokens < 1 {
			// Wait for at least one MTU worth of tokens.
			need := 1500 - c.tokens
			wait := time.Duration(need / (c.cfg.BandwidthBps / 8) * float64(time.Second))
			if wait > 0 {
				time.Sleep(wait)
			}
			continue
		}
		n := int(c.tokens)
		if n > len(p)-written {
			n = len(p) - written
		}
		m, err := c.Conn.Write(p[written : written+n])
		written += m
		c.tokens -= float64(m)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Read delivers data only after the propagation delay has elapsed
// since it arrived from the inner connection.
func (c *Conn) Read(p []byte) (int, error) {
	if c.cfg.Delay <= 0 {
		return c.Conn.Read(p)
	}
	c.readMu.Lock()
	defer c.readMu.Unlock()
	// Serve buffered released data first.
	if len(c.buf) > 0 {
		n := copy(p, c.buf)
		c.buf = c.buf[n:]
		return n, nil
	}
	// Release the next pending chunk when due.
	if len(c.pending) > 0 {
		ch := c.pending[0]
		if wait := time.Until(ch.arrival); wait > 0 {
			time.Sleep(wait)
		}
		c.pending = c.pending[1:]
		n := copy(p, ch.data)
		if n < len(ch.data) {
			c.buf = ch.data[n:]
		}
		return n, nil
	}
	// Pull fresh data from the wire and stamp its arrival time.
	tmp := make([]byte, 64<<10)
	n, err := c.Conn.Read(tmp)
	if n > 0 {
		due := time.Now().Add(c.cfg.Delay)
		data := append([]byte(nil), tmp[:n]...)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		m := copy(p, data)
		if m < len(data) {
			c.buf = data[m:]
		}
		return m, err
	}
	return 0, err
}

// Pipe returns an in-process bidirectional link shaped with cfg in
// each direction, for tests and single-process experiments.
func Pipe(cfg Config) (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return Wrap(a, cfg), Wrap(b, cfg)
}
