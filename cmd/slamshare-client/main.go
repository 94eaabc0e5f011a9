// Command slamshare-client replays a synthetic dataset sequence as an
// AR device against a running slamshare-server: IMU integration and
// video encoding on the client, SLAM on the server. The link can be
// shaped with tc-style delay and bandwidth options, as in the paper's
// testbed (§5.1).
package main

import (
	"flag"
	"log"
	"net"
	"strings"
	"time"

	"slamshare"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7007", "server address")
	addrsFlag := flag.String("addrs", "", "comma-separated replicated front addresses to fail over between (overrides -addr)")
	seqName := flag.String("seq", "MH04", "sequence: MH04, MH05, V202, TUM-fr1, KITTI-00, KITTI-05, CITY-00, CITY-01")
	stereo := flag.Bool("stereo", true, "use the stereo rig")
	id := flag.Uint("id", 1, "client id (unique per device)")
	frames := flag.Int("frames", 300, "frames to replay")
	stride := flag.Int("stride", 1, "process every Nth frame")
	delay := flag.Duration("delay", 0, "added one-way link delay (tc netem)")
	mbps := flag.Float64("mbps", 0, "link bandwidth cap in Mbit/s (0 = unlimited)")
	qosName := flag.String("qos", "", "QoS class for adaptive offloading: headset, handheld or drone (empty = fixed full offload)")
	modeName := flag.String("mode", "", "pin an offload mode instead of letting the server adapt: full, split or shadow")
	flag.Parse()

	mode := slamshare.Mono
	if *stereo {
		mode = slamshare.Stereo
	}
	seq, err := slamshare.LoadSequence(*seqName, mode)
	if err != nil {
		log.Fatal(err)
	}

	dev := slamshare.NewDevice(uint32(*id), seq)
	adaptive := *qosName != "" || *modeName != ""
	if *qosName != "" {
		qos, err := slamshare.ParseQoS(*qosName)
		if err != nil {
			log.Fatal(err)
		}
		dev.EnableAdaptive(qos, slamshare.CapSplit|slamshare.CapShadow)
	}
	if *modeName != "" {
		m, err := slamshare.ParseOffloadMode(*modeName)
		if err != nil {
			log.Fatal(err)
		}
		dev.ForceMode(m)
	}
	var idxs []int
	for i := 0; i < *frames && i < seq.FrameCount(); i += *stride {
		idxs = append(idxs, i)
	}
	// One dial path: -addr is a one-entry -addrs, and every connection
	// the dialer returns is shaped, so shaping and failover compose.
	if *addrsFlag == "" {
		*addrsFlag = *addr
	}
	var addrs []string
	for _, a := range strings.Split(*addrsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	dialAddr := slamshare.AddrDialer(addrs...)
	dial := func() (net.Conn, error) {
		raw, err := dialAddr()
		if err != nil {
			return nil, err
		}
		return slamshare.ShapeConn(raw, slamshare.NetemConfig{Delay: *delay, BandwidthBps: *mbps * 1e6}), nil
	}
	log.Printf("client %d replaying %s (%s), %d frames over %v (delay %v, cap %.1f Mbit/s)",
		*id, seq.Name, mode, len(idxs), addrs, *delay, *mbps)
	start := time.Now()
	pol := slamshare.RetryPolicy{Base: 100, Factor: 2, Max: 2000, Jitter: 0.2, MaxAttempts: 10, Seed: int64(*id)}
	if err := dev.Run(dial, idxs, pol); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	truth := slamshare.GroundTruth(seq, *frames, *stride)
	log.Printf("done in %v: ATE %.3f m, uplink %.2f KB/frame",
		elapsed.Round(time.Millisecond),
		slamshare.ATE(dev.Trajectory(), truth),
		float64(dev.UplinkBytes())/float64(dev.FramesSent())/1024)
	if adaptive {
		log.Printf("offload: final mode %s, RTT estimate %v, %d mode switches",
			dev.OffloadMode(), dev.RTTEstimate().Round(time.Millisecond), len(dev.ModeLog()))
	}
}
