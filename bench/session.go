package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"slamshare/internal/geom"
	"slamshare/internal/protocol"
)

// patience is how long an answer may take before its frame counts as
// missing.
const patience = 10 * time.Second

// uplink is one frame ready for the socket.
type uplink struct {
	idx     int // dataset frame index
	mt      byte
	payload []byte
}

// device is the generator's end of one session: it turns step k into an
// uplink and consumes the pose that answers it.
type device interface {
	hello() *protocol.HelloMsg
	// build produces the k-th uplink; r and parent place its spans.
	build(k int, r *recorder, parent int) uplink
	// apply folds one decoded answer into the device.
	apply(pm *protocol.PoseMsg)
	// truth is the ground-truth camera centre of dataset frame idx.
	truth(idx int) geom.Vec3
	// steps is how many uplinks the device can produce.
	steps() int
	// ateCm is the session's trajectory error in centimetres.
	ateCm() float64
}

// frameRec is everything the generator observed about one frame.
type frameRec struct {
	idx      int
	sentOK   bool
	began    time.Time // the generator started on the frame: the latency origin
	sent     time.Time // socket write began
	read     time.Time // answer fully read from the socket
	done     time.Time // answer decoded and applied
	bytes    int       // framed bytes written (header + payload)
	answers  int
	shed     bool
	tracked  bool
	errM     float64 // camera centre distance from ground truth
	root     int     // root span of a traced frame
	rttSpan  int
	measured bool
	quiet    bool   // count: answered correctly in slices the host left alone
	mt       byte   // kept, with payload, only in a traced run:
	payload  []byte // the server pass replays what was sent
}

// link is what the pacing loop needs from a session; tests substitute
// a fake.
type link interface {
	// send builds and writes frame k.
	send(k int) error
	// poll waits until `until` for one answer and reports whether one
	// was consumed.
	poll(until time.Time) (bool, error)
	// pending is the number of sent frames not yet answered.
	pending() int
}

var errMissing = errors.New("answer missing")

// closedLoop sends frames [from, to) one at a time, each after the
// previous one's answer, stopping early once stop (if non-zero) has
// passed. It returns the index after the last frame sent.
func closedLoop(l link, from, to int, stop time.Time) (int, error) {
	k := from
	for ; k < to; k++ {
		if !stop.IsZero() && !time.Now().Before(stop) {
			break
		}
		if err := l.send(k); err != nil {
			return k, err
		}
		for l.pending() > 0 {
			ok, err := l.poll(time.Now().Add(patience))
			if err != nil {
				return k + 1, err
			}
			if !ok {
				return k + 1, errMissing
			}
		}
	}
	return k, nil
}

// session drives one device over one connection from one goroutine.
type session struct {
	conn     net.Conn
	br       *bufio.Reader
	dev      device
	recs     []frameRec  // by step k
	byIdx    map[int]int // dataset frame index -> k
	inflight int
	strays   int       // answers for frames never sent, or after the bye
	rec      *recorder // nil when tracing is off
	measured bool      // frames sent now belong to the measured phase
}

func dialSession(addr string, dev device, rec *recorder) (*session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &session{conn: conn, br: bufio.NewReader(conn), dev: dev,
		recs: make([]frameRec, dev.steps()), byIdx: make(map[int]int), rec: rec}
	if err := protocol.WriteMessage(conn, protocol.TypeHello, dev.hello().Encode()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return s, nil
}

func (s *session) pending() int { return s.inflight }

func (s *session) send(k int) error {
	fr := &s.recs[k]
	fr.measured = s.measured
	fr.began = time.Now()
	// In a traced run every second measured frame is traced, so the
	// two halves give the tracing overhead from one run.
	var r *recorder
	if s.measured && k%2 == 0 {
		r = s.rec
	}
	fr.root = r.begin("frame", 0, k)
	up := s.dev.build(k, r, fr.root)
	fr.idx = up.idx
	s.byIdx[up.idx] = k
	fr.rttSpan = r.begin("transport.rtt", fr.root, k)
	fr.sent = time.Now()
	if err := protocol.WriteMessage(s.conn, up.mt, up.payload); err != nil {
		return fmt.Errorf("send frame %d: %w", up.idx, err)
	}
	fr.bytes = 5 + len(up.payload)
	fr.sentOK = true
	if s.rec != nil {
		fr.mt, fr.payload = up.mt, up.payload
	}
	s.inflight++
	return nil
}

func (s *session) poll(until time.Time) (bool, error) {
	for {
		if err := s.conn.SetReadDeadline(until); err != nil {
			return false, err
		}
		if _, err := s.br.Peek(1); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return false, nil
			}
			return false, err
		}
		// A message has begun; it must complete within patience.
		if err := s.conn.SetReadDeadline(time.Now().Add(patience)); err != nil {
			return false, err
		}
		mt, payload, err := protocol.ReadMessage(s.br)
		if err != nil {
			return false, err
		}
		if mt != protocol.TypePose {
			continue // mode switches and the like are not answers
		}
		return true, s.answer(payload, time.Now())
	}
}

func (s *session) answer(payload []byte, read time.Time) error {
	pm, err := protocol.DecodePoseMsg(payload)
	if err != nil {
		return fmt.Errorf("pose decode: %w", err)
	}
	decoded := time.Now()
	k, known := s.byIdx[int(pm.FrameIdx)]
	if !known {
		s.strays++
		return nil
	}
	fr := &s.recs[k]
	fr.answers++
	if fr.answers > 1 {
		return nil
	}
	var r *recorder
	if fr.root != 0 {
		r = s.rec
	}
	s.inflight--
	s.dev.apply(pm)
	fr.read, fr.done = read, time.Now()
	fr.shed, fr.tracked = pm.Shed, pm.Tracked
	fr.errM = pm.Pose.Inverse().T.Sub(s.dev.truth(fr.idx)).Norm()
	if r != nil {
		r.at(fr.rttSpan).End = r.since(read)
		r.add("protocol.pose_codec", fr.root, k, r.since(read), r.since(decoded))
		r.add("client.apply", fr.root, k, r.since(decoded), r.since(fr.done))
		r.at(fr.root).End = r.since(fr.done)
	}
	return nil
}

// bye ends the session and drains the connection, so that an answer
// the server sends twice is seen rather than lost in the close.
func (s *session) bye() {
	defer s.conn.Close()
	if err := protocol.WriteMessage(s.conn, protocol.TypeBye, nil); err != nil {
		return
	}
	for {
		ok, err := s.poll(time.Now().Add(time.Second))
		if err != nil || !ok {
			return
		}
	}
}
