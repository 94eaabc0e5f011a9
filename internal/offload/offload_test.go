package offload

import (
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		SplitLoad:  2,
		ShadowLoad: 6,
		SplitRTT:   150 * time.Millisecond,
		Hysteresis: time.Second,
	}
}

func TestControllerStartsFull(t *testing.T) {
	c := NewController(testConfig(), QoSHandheld, CapSplit|CapShadow, ModeFull)
	if c.Mode() != ModeFull || c.Epoch() != 0 {
		t.Fatalf("fresh controller: mode=%v epoch=%d", c.Mode(), c.Epoch())
	}
}

// TestControllerStartsInDeviceMode: a session opened for a device that
// is already in shadow starts in shadow, so an idle server upgrades it.
func TestControllerStartsInDeviceMode(t *testing.T) {
	c := NewController(testConfig(), QoSDrone, CapSplit|CapShadow, ModeShadow)
	if c.Mode() != ModeShadow || c.Epoch() != 0 {
		t.Fatalf("shadow-started controller: mode=%v epoch=%d", c.Mode(), c.Epoch())
	}
	if m, sw := c.Decide(time.Unix(100, 0), Inputs{}); !sw || m != ModeFull || c.Epoch() != 1 {
		t.Fatalf("idle upgrade: %v %v epoch %d", m, sw, c.Epoch())
	}
}

func TestDowngradeOnLoad(t *testing.T) {
	c := NewController(testConfig(), QoSHandheld, CapSplit|CapShadow, ModeFull)
	t0 := time.Unix(100, 0)

	// Light load: stays full.
	if m, sw := c.Decide(t0, Inputs{QueueDepth: 1, Workers: 4}); sw || m != ModeFull {
		t.Fatalf("light load switched: %v %v", m, sw)
	}
	// Load past SplitLoad: degrades to split.
	if m, sw := c.Decide(t0, Inputs{QueueDepth: 12, Workers: 4}); !sw || m != ModeSplit {
		t.Fatalf("split downgrade: %v %v", m, sw)
	}
	// Load past ShadowLoad (after the dwell): degrades to shadow.
	t1 := t0.Add(2 * time.Second)
	if m, sw := c.Decide(t1, Inputs{QueueDepth: 40, Workers: 4}); !sw || m != ModeShadow {
		t.Fatalf("shadow downgrade: %v %v", m, sw)
	}
	if c.Epoch() != 2 {
		t.Fatalf("epoch = %d after two switches", c.Epoch())
	}
}

func TestDowngradeOnRTT(t *testing.T) {
	c := NewController(testConfig(), QoSHandheld, CapSplit, ModeFull)
	m, sw := c.Decide(time.Unix(100, 0), Inputs{RTT: 200 * time.Millisecond})
	if !sw || m != ModeSplit {
		t.Fatalf("rtt downgrade: %v %v", m, sw)
	}
}

func TestHysteresisDwell(t *testing.T) {
	c := NewController(testConfig(), QoSHandheld, CapSplit|CapShadow, ModeFull)
	t0 := time.Unix(100, 0)
	c.Decide(t0, Inputs{QueueDepth: 12, Workers: 4}) // -> split

	// Inside the dwell nothing moves, in either direction.
	if m, sw := c.Decide(t0.Add(500*time.Millisecond), Inputs{QueueDepth: 40, Workers: 4}); sw || m != ModeSplit {
		t.Fatalf("switched inside dwell: %v %v", m, sw)
	}
	if m, sw := c.Decide(t0.Add(999*time.Millisecond), Inputs{}); sw || m != ModeSplit {
		t.Fatalf("upgraded inside dwell: %v %v", m, sw)
	}
	// Past the dwell the pending downgrade lands.
	if m, sw := c.Decide(t0.Add(time.Second), Inputs{QueueDepth: 40, Workers: 4}); !sw || m != ModeShadow {
		t.Fatalf("downgrade after dwell: %v %v", m, sw)
	}
}

func TestUpgradeNeedsClearMargin(t *testing.T) {
	c := NewController(testConfig(), QoSHandheld, CapSplit, ModeFull)
	t0 := time.Unix(100, 0)
	c.Decide(t0, Inputs{QueueDepth: 12, Workers: 4}) // -> split at load 3

	// Load dipped just under the downgrade threshold (2): not enough,
	// the upgrade needs to clear upgradeFrac x threshold = 1.
	t1 := t0.Add(2 * time.Second)
	if m, sw := c.Decide(t1, Inputs{QueueDepth: 6, Workers: 4}); sw || m != ModeSplit {
		t.Fatalf("borderline upgrade taken: %v %v", m, sw)
	}
	// Load well clear: upgrade lands.
	if m, sw := c.Decide(t1, Inputs{QueueDepth: 1, Workers: 4}); !sw || m != ModeFull {
		t.Fatalf("clear upgrade refused: %v %v", m, sw)
	}
}

func TestHeadsetNeverShadows(t *testing.T) {
	c := NewController(testConfig(), QoSHeadset, CapSplit|CapShadow, ModeFull)
	t0 := time.Unix(100, 0)
	m, _ := c.Decide(t0, Inputs{QueueDepth: 1000, Workers: 1})
	if m != ModeSplit {
		t.Fatalf("headset under extreme load: %v", m)
	}
	m, sw := c.Decide(t0.Add(time.Hour), Inputs{QueueDepth: 1000, Workers: 1})
	if sw || m != ModeShadow {
		if m == ModeShadow {
			t.Fatal("headset degraded to shadow")
		}
	}
}

func TestQoSScalesThresholds(t *testing.T) {
	// The same moderate load downgrades a drone but not a headset:
	// drone threshold is 2*0.6=1.2, headset 2*1.5=3.
	in := Inputs{QueueDepth: 8, Workers: 4} // load 2
	drone := NewController(testConfig(), QoSDrone, CapSplit|CapShadow, ModeFull)
	headset := NewController(testConfig(), QoSHeadset, CapSplit|CapShadow, ModeFull)
	t0 := time.Unix(100, 0)
	if m, _ := drone.Decide(t0, in); m != ModeSplit {
		t.Fatalf("drone at load 2: %v", m)
	}
	if m, _ := headset.Decide(t0, in); m != ModeFull {
		t.Fatalf("headset at load 2: %v", m)
	}
}

func TestCapsGateModes(t *testing.T) {
	// No capabilities: pinned to full no matter what.
	c := NewController(testConfig(), QoSDrone, 0, ModeFull)
	if m, sw := c.Decide(time.Unix(100, 0), Inputs{QueueDepth: 1000, Workers: 1}); sw || m != ModeFull {
		t.Fatalf("capless session moved: %v %v", m, sw)
	}
	// Shadow-only client skips split and goes straight to shadow.
	c2 := NewController(testConfig(), QoSDrone, CapShadow, ModeFull)
	if m, _ := c2.Decide(time.Unix(100, 0), Inputs{QueueDepth: 1000, Workers: 1}); m != ModeShadow {
		t.Fatalf("shadow-only session: %v", m)
	}
}

func TestBacklogCountsAsLoad(t *testing.T) {
	c := NewController(testConfig(), QoSHandheld, CapSplit, ModeFull)
	if m, _ := c.Decide(time.Unix(100, 0), Inputs{Backlog: 3}); m != ModeSplit {
		t.Fatalf("backlogged session: %v", m)
	}
}

func TestConfigFill(t *testing.T) {
	c := NewController(Config{}, QoSHandheld, CapSplit, ModeFull)
	d := DefaultConfig()
	if c.cfg != d {
		t.Fatalf("zero config not filled: %+v", c.cfg)
	}
}
