package netem

import (
	"bytes"
	"io"
	"testing"
	"time"
)

func TestPipeUnlimitedPassesData(t *testing.T) {
	a, b := Pipe(Unlimited)
	defer a.Close()
	defer b.Close()
	msg := []byte("hello slam-share")
	go a.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
}

func TestDelayAddsLatency(t *testing.T) {
	const delay = 50 * time.Millisecond
	a, b := Pipe(DelayOnly(delay))
	defer a.Close()
	defer b.Close()
	msg := []byte("ping")
	start := time.Now()
	go a.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < delay {
		t.Errorf("read completed in %v, want >= %v", elapsed, delay)
	}
	if elapsed > delay*4 {
		t.Errorf("read took %v, far beyond the configured delay", elapsed)
	}
}

func TestBandwidthCapsThroughput(t *testing.T) {
	// 8 Mbit/s cap: 200 KB should take ~200 ms.
	cfg := Mbps(8)
	cfg.Burst = 16 << 10
	a, b := Pipe(cfg)
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 200<<10)
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
	min := 120 * time.Millisecond // allow burst credit
	if elapsed < min {
		t.Errorf("200KB at 8Mbit/s took only %v", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("transfer too slow: %v", elapsed)
	}
}

func TestUnlimitedIsFast(t *testing.T) {
	a, b := Pipe(Unlimited)
	defer a.Close()
	defer b.Close()
	payload := make([]byte, 1<<20)
	go func() {
		a.Write(payload)
	}()
	start := time.Now()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("unshaped 1MB transfer took %v", time.Since(start))
	}
}

func TestShortReadBuffering(t *testing.T) {
	a, b := Pipe(DelayOnly(5 * time.Millisecond))
	defer a.Close()
	defer b.Close()
	msg := []byte("0123456789")
	go a.Write(msg)
	// Read in tiny pieces: buffered remainder must survive.
	var got []byte
	for len(got) < len(msg) {
		p := make([]byte, 3)
		n, err := b.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p[:n]...)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("got %q", got)
	}
}
