package cluster

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"slamshare/internal/obs"
	"slamshare/internal/protocol"
)

// TestFrontRegisterDebug scrapes the front's failover gauges off a
// real /debug/vars endpoint, the way the front-kill chaos killer and
// operators do.
func TestFrontRegisterDebug(t *testing.T) {
	f := NewFront(FrontConfig{Shards: []string{"127.0.0.1:1"}})
	f.stats.SessionsAdopted.Add(3)
	f.stats.ResumeFailures.Add(1)
	f.stats.LedgerEvictions.Add(7)
	f.stats.FramesRelayed.Add(120)
	f.stats.FramesTranscoded.Add(19)
	f.stats.Resyncs.Add(2)
	f.record(HandoffEvent{Client: 9, Epoch: 1, Committed: true})

	reg := obs.NewRegistry()
	f.RegisterDebug(reg)
	srv := httptest.NewServer(obs.Handler(obs.NewTracer(reg, 16)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"front.sessions_adopted":  3,
		"front.resume_failures":   1,
		"front.ledger_evictions":  7,
		"front.handoff_stalls":    0,
		"front.frames_relayed":    120,
		"front.frames_transcoded": 19,
		"front.resyncs":           2,
	}
	for name, v := range want {
		got, ok := snap.Counters[name]
		if !ok {
			t.Errorf("counter %s missing from /debug/vars", name)
			continue
		}
		if got != v {
			t.Errorf("counter %s = %d, want %d", name, got, v)
		}
	}
	if got, ok := snap.Vars["front.handoffs"]; !ok {
		t.Error("front.handoffs missing from /debug/vars")
	} else if n, _ := got.(float64); n != 1 {
		t.Errorf("front.handoffs = %v, want 1", got)
	}
}

// BenchmarkFrontAdopt measures the session-adoption handshake a
// failed-over client triggers on the surviving front: token decode and
// validation plus the owning shard's resume probe over a fresh admin
// connection. This is the per-session cost of a front failover, to
// compare against the full relocalization a tokenless reconnect pays.
func BenchmarkFrontAdopt(b *testing.B) {
	const clientID = 51
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	sh := startShard(b, 0, ln)
	defer sh.Close()
	defer ln.Close()
	// Give the shard real resume state for the client (the probe answers
	// from the per-client answered-frame watermark).
	defer buildSourceMap(b, ln.Addr().String(), clientID, 8)()

	f := NewFront(FrontConfig{Shards: []string{ln.Addr().String()}, Token: testToken})
	tok := protocol.SessionTokenMsg{
		ClientID: clientID, Shard: 0, Epoch: 2,
		Marks: []protocol.ShardMark{{Shard: 0, MaxFrame: 28}},
	}
	payload := tok.Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &session{f: f, clientID: clientID}
		if !s.adopt(payload) {
			b.Fatal("adopt rejected a valid token")
		}
		if s.epoch < 2 || s.cur != 0 {
			b.Fatalf("adopt state: epoch=%d cur=%d", s.epoch, s.cur)
		}
	}
}
