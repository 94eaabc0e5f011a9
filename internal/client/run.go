package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
)

// Dialer hands Run its next connection; Run closes every connection it
// is handed. A dialer with no further connection to give returns
// ErrNoRedial, and Run ends with the error that took the last link down.
type Dialer func() (net.Conn, error)

// ErrNoRedial is what a Dialer returns once it will hand out no more
// connections.
var ErrNoRedial = errors.New("client: no connection left to dial")

// ConnDialer is the dialer over one already-open connection: a session
// on it cannot outlive the link, so Run returns the link's own error.
func ConnDialer(conn net.Conn) Dialer {
	return func() (net.Conn, error) {
		if conn == nil {
			return nil, ErrNoRedial
		}
		nc := conn
		conn = nil
		return nc, nil
	}
}

// AddrDialer dials TCP addresses in rotation — one server, or a list of
// replicated fronts of which any survivor can adopt the session.
func AddrDialer(addrs ...string) Dialer {
	next := 0
	return func() (net.Conn, error) {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("%w: empty address list", ErrNoRedial)
		}
		addr := addrs[next%len(addrs)]
		next++
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
}

// maxInFlight bounds an open-loop session's unanswered uplinks by what
// the server queues per connection.
const maxInFlight = protocol.UplinkWindow

// session is the state of one Run: the live link with its reader
// goroutine, and the ledger of unanswered uplinks in send order. Run's
// goroutine owns conn and appends to the ledger; the reader removes
// settled entries. attempt counts consecutive failures: the reader
// refunds it, Run's goroutine spends it only while no reader runs.
type session struct {
	c    *Client
	dial Dialer
	pol  overload.Backoff

	conn    net.Conn
	down    chan struct{} // closed when conn's reader has exited
	downErr error         // why it exited; valid once down is closed

	mu      sync.Mutex // guards ledger
	ledger  []protocol.Uplink
	attempt int
	wake    chan struct{} // poked (never blocking) after each settle
}

// Run drives the device's whole socket session for the given frame
// indices, as one state machine:
//
//	dial → hello [+ stored session token] → stream ⇄ settle → bye
//	          ↑                                │ any socket error
//	          └── resend ledger ← redial ← backoff
//
// Every frame is built exactly once (the IMU chain must not fork), in
// the offload mode the session is in at that moment, and stays on the
// ledger until the reader goroutine sees its answer. With Pace == 0 the
// ledger holds one entry (closed loop); with Pace > 0 uplinks go out at
// that interval with up to maxInFlight unanswered. Every failure (a
// refused dial, an unwritten hello, a lost link) costs one attempt of
// pol.MaxAttempts (0 = unbounded) and its jittered delay, read as
// milliseconds; any settled answer refunds the budget.
func (c *Client) Run(dial Dialer, frames []int, pol overload.Backoff) error {
	window := 1
	if c.Pace > 0 {
		window = maxInFlight
	}
	s := &session{c: c, dial: dial, pol: pol, wake: make(chan struct{}, 1)}
	defer s.hangUp()
	if err := s.connect(nil); err != nil {
		return err
	}
	for _, i := range frames {
		if err := s.awaitBelow(window); err != nil {
			return err
		}
		u := c.BuildUplink(i)
		s.mu.Lock()
		s.ledger = append(s.ledger, u)
		s.mu.Unlock()
		if err := c.sendUplink(s.conn, u); err != nil {
			if err := s.connect(err); err != nil {
				return err
			}
		}
		if c.Pace > 0 {
			time.Sleep(c.Pace)
		}
	}
	if err := s.awaitBelow(1); err != nil {
		return err
	}
	// Best effort: without it the server books a dropped session.
	_ = protocol.WriteMessage(s.conn, protocol.TypeBye, nil)
	return nil
}

// awaitBelow blocks until fewer than n uplinks are unanswered,
// reconnecting if the link dies meanwhile.
func (s *session) awaitBelow(n int) error {
	for {
		s.mu.Lock()
		inFlight := len(s.ledger)
		s.mu.Unlock()
		if inFlight < n {
			return nil
		}
		select {
		case <-s.wake:
		case <-s.down:
			if err := s.connect(s.downErr); err != nil {
				return err
			}
		}
	}
}

// hangUp closes the live link and waits for its reader to finish, so
// the ledger is quiescent afterwards.
func (s *session) hangUp() {
	if s.conn != nil {
		s.conn.Close()
		<-s.down
		s.conn = nil
	}
}

// connect brings up a link: the first (cause == nil), or a replacement
// for one that failed with cause. It returns once the hello and the
// whole ledger are written and a reader is running.
func (s *session) connect(cause error) error {
	id := uint64(s.c.ID)
	for {
		s.hangUp()
		if cause != nil {
			time.Sleep(s.pol.DelayDuration(id, s.attempt))
			s.attempt++
		}
		if s.pol.Exhausted(s.attempt) {
			return fmt.Errorf("client %d: retries exhausted after %d attempts: %w", id, s.attempt, cause)
		}
		conn, err := s.dial()
		if errors.Is(err, ErrNoRedial) {
			if cause == nil {
				cause = err
			}
			return cause
		}
		if err == nil {
			if err = s.greet(conn); err == nil {
				s.conn, s.down = conn, make(chan struct{})
				go s.read(conn, s.down)
				return nil
			}
			conn.Close()
		}
		cause = err
	}
}

// greet opens the session on a fresh connection and brings it level
// with the ledger: each video frame is re-encoded onto the restarted
// stream (the first one intra), keypoint uplinks go out as built.
func (s *session) greet(conn net.Conn) error {
	if err := s.c.hello(conn); err != nil {
		return err
	}
	// No reader is running, so the ledger cannot change underfoot.
	for _, u := range s.ledger {
		if fm, ok := u.(*protocol.FrameMsg); ok {
			s.c.ReencodeFrame(fm, int(fm.FrameIdx))
		}
		if err := s.c.sendUplink(conn, u); err != nil {
			return err
		}
	}
	return nil
}

// read is the link's reader goroutine: it applies every downlink and
// settles answered uplinks until the socket fails.
func (s *session) read(conn net.Conn, down chan struct{}) {
	defer close(down)
	for {
		mt, payload, err := protocol.ReadMessage(conn)
		var pm *protocol.PoseMsg
		if err == nil {
			pm, err = s.c.handleDownlink(mt, payload)
		}
		if err != nil {
			s.downErr = err
			return
		}
		if pm != nil {
			s.settle(pm)
		}
	}
}

// settle retires the ledger entry pm answers. A pose for nothing on
// the ledger (a duplicate) was counted and applied like any other but
// settles nothing.
func (s *session) settle(pm *protocol.PoseMsg) {
	s.mu.Lock()
	k := 0
	for k < len(s.ledger) && s.ledger[k].Header().FrameIdx != pm.FrameIdx {
		k++
	}
	found := k < len(s.ledger)
	s.mu.Unlock()
	if !found {
		return
	}
	if s.c.OnAnswer != nil {
		s.c.OnAnswer(pm)
	}
	// Only this goroutine removes and Run only appends, so k still
	// names the entry.
	s.mu.Lock()
	s.ledger = append(s.ledger[:k], s.ledger[k+1:]...)
	s.attempt = 0
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// hello writes the session opening: the hello (CapResume always; an
// unconfigured client is a QoS-0 headset naming no offload mode, which
// a server pins to full offload), then the session token if a front
// ever issued one (a plain server ignores it), and restarts the video
// streams intra for the new session's decoders.
func (c *Client) hello(conn net.Conn) error {
	c.mu.Lock()
	msg := protocol.HelloMsg{
		ClientID: c.ID,
		Mode:     c.Seq.Rig.Mode,
		Intr:     c.Seq.Rig.Intr,
		Baseline: c.Seq.Rig.Baseline,
		QoS:      c.qos,
		Caps:     c.caps | offload.CapResume,
	}
	tok := append([]byte(nil), c.lastToken...)
	c.mu.Unlock()
	if err := protocol.WriteMessage(conn, protocol.TypeHello, msg.Encode()); err != nil {
		return err
	}
	if len(tok) > 0 {
		if err := protocol.WriteMessage(conn, protocol.TypeSessionToken, tok); err != nil {
			return err
		}
	}
	c.Reconnect()
	return nil
}

// sendUplink stamps u with the send time (echoed on the answer: the
// client's RTT sample) and the RTT estimate (the server's policy
// input) and writes it. Stamping at every send keeps a resent uplink
// from reporting the outage as RTT.
func (c *Client) sendUplink(conn net.Conn, u protocol.Uplink) error {
	h := u.Header()
	h.SentNanos, h.RTTNanos = uint64(time.Now().UnixNano()), uint64(c.RTTEstimate())
	return protocol.WriteMessage(conn, u.Type(), u.Encode())
}

// handleDownlink applies one server message: a pose is folded into the
// motion model (with its echo, shed flag and session token noted and
// its arrival counted) and returned for settling; a mode switch is
// applied; anything else is skipped.
func (c *Client) handleDownlink(mt byte, payload []byte) (*protocol.PoseMsg, error) {
	switch mt {
	case protocol.TypeModeSwitch:
		ms, err := protocol.DecodeModeSwitchMsg(payload)
		if err != nil {
			return nil, err
		}
		c.ApplyModeSwitch(ms)
	case protocol.TypePose:
		pm, err := protocol.DecodePoseMsg(payload)
		if err != nil {
			return nil, err
		}
		if pm.EchoNanos != 0 {
			c.noteEcho(pm.EchoNanos, time.Now())
		}
		if pm.Token != nil {
			c.noteToken(pm.Token)
		}
		c.noteAnswer(pm.FrameIdx)
		c.ApplyPose(int(pm.FrameIdx), pm.Pose, pm.Tracked)
		return pm, nil
	}
	return nil, nil
}
