package netem

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

func TestFaultResetAfterBytesCutsMidMessage(t *testing.T) {
	a, b := Pipe(Unlimited)
	fc := WrapFault(a, FaultConfig{ResetAfterBytes: 100})
	defer fc.Close()
	defer b.Close()

	var got []byte
	readDone := make(chan error, 1)
	go func() {
		buf, err := io.ReadAll(b)
		got = buf
		readDone <- err
	}()

	payload := make([]byte, 40)
	for i := range payload {
		payload[i] = byte(i)
	}
	var wrote int
	var lastErr error
	for i := 0; i < 3; i++ {
		n, err := fc.Write(payload)
		wrote += n
		if err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrInjectedReset) {
		t.Fatalf("want ErrInjectedReset, got %v", lastErr)
	}
	if wrote != 100 {
		t.Errorf("wire saw %d bytes, want exactly 100 (mid-message cut)", wrote)
	}
	<-readDone
	if len(got) != 100 {
		t.Errorf("peer received %d bytes, want 100", len(got))
	}
	if st := fc.Stats(); st.Resets != 1 || st.Written != 100 {
		t.Errorf("stats = %+v", st)
	}
	// The connection stays dead.
	if _, err := fc.Write(payload); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("post-reset write error = %v", err)
	}
}

func TestFaultFreezeThaw(t *testing.T) {
	a, b := Pipe(Unlimited)
	fc := WrapFault(a, FaultConfig{})
	defer fc.Close()
	defer b.Close()
	go io.Copy(io.Discard, b)

	fc.Freeze()
	wrote := make(chan struct{})
	go func() {
		fc.Write([]byte("partitioned"))
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("write completed while frozen")
	case <-time.After(50 * time.Millisecond):
	}
	fc.Thaw()
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("write did not resume after Thaw")
	}
	// Freeze/Thaw are idempotent.
	fc.Thaw()
	fc.Freeze()
	fc.Freeze()
	fc.Thaw()
}

func TestFaultCutKillsBothDirections(t *testing.T) {
	a, b := Pipe(Unlimited)
	fc := WrapFault(a, FaultConfig{})
	defer b.Close()

	fc.Cut()
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("write after Cut: %v", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Errorf("read after Cut: %v", err)
	}
	// The peer observes the close too.
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Error("peer read succeeded after Cut")
	}
}

func TestFaultComposesWithShaping(t *testing.T) {
	// Faults under shaping: WrapFault(Wrap(...)) paces and then cuts.
	inner, peer := Pipe(Unlimited)
	shaped := Wrap(inner, DelayOnly(5*time.Millisecond))
	fc := WrapFault(shaped, FaultConfig{ResetAfterBytes: 10})
	defer fc.Close()
	defer peer.Close()

	var got []byte
	readDone := make(chan struct{})
	go func() {
		buf, _ := io.ReadAll(peer)
		got = buf
		close(readDone)
	}()
	fc.Write([]byte("0123456789abcdef"))
	<-readDone
	if !bytes.Equal(got, []byte("0123456789")) {
		t.Errorf("peer got %q, want first 10 bytes only", got)
	}
}

func TestBandwidthPacingTolerance(t *testing.T) {
	// 4 Mbit/s, 8 KiB burst: 100 KB ≈ 200 ms of pacing. Assert the
	// elapsed time lands in a generous band around the theoretical
	// serialization delay — neither bypassing the bucket nor stalling.
	cfg := Mbps(4)
	cfg.Burst = 8 << 10
	a, b := Pipe(cfg)
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 100<<10)
	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		a.Write(payload)
		done <- time.Since(start)
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	elapsed := <-done
	// Theoretical: (100 KiB - burst credit) / 500 KB/s ≈ 188 ms.
	if elapsed < 90*time.Millisecond {
		t.Errorf("pacing too loose: 100KB at 4Mbit/s in %v", elapsed)
	}
	if elapsed > 1500*time.Millisecond {
		t.Errorf("pacing too tight: 100KB at 4Mbit/s took %v", elapsed)
	}
}

func TestDelayPreservesOrdering(t *testing.T) {
	// Messages written in sequence must be read in sequence even when
	// each is released after the propagation delay.
	a, b := Pipe(DelayOnly(10 * time.Millisecond))
	defer a.Close()
	defer b.Close()
	go func() {
		for i := byte(0); i < 20; i++ {
			a.Write([]byte{i})
		}
	}()
	got := make([]byte, 20)
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 20; i++ {
		if got[i] != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}
