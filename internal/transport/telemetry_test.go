package transport

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// TestClusterTelemetryAggregation is the end-to-end pass over the live
// telemetry plane inside one process: p members join a coordinator
// with push loops armed, their recorders observe synthetic supersteps
// generated from a known (g, L), and the coordinator's /status and
// /metrics must show every rank advancing, the counters adding up, and
// the online estimator recovering the planted parameters.
func TestClusterTelemetryAggregation(t *testing.T) {
	defer checkGoroutines(t)()
	const p = 2
	const steps = 10
	const gNsPerPkt, lNs = 2_000, 500_000 // g = 2µs/pkt, L = 500µs
	coord, watch := watchCoordinator(t, p, CoordinatorOptions{
		JobID: "telem", JoinTimeout: 10 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond, SuspectAfter: 5 * time.Second,
		StatusAddr: "127.0.0.1:0",
	})
	defer coord.Close()
	statusURL := coord.StatusURL()
	if statusURL == "" {
		t.Fatal("StatusAddr :0 produced no StatusURL")
	}

	rec := trace.New(p)
	eps := make([]Endpoint, p)
	var joinWG sync.WaitGroup
	for r := 0; r < p; r++ {
		joinWG.Add(1)
		go func() {
			defer joinWG.Done()
			ep, err := JoinCluster(ClusterConfig{
				Coordinator: coord.Addr(), JobID: "telem", Rank: r, P: p,
				JoinTimeout:       10 * time.Second,
				HeartbeatInterval: 20 * time.Millisecond, SuspectAfter: 5 * time.Second,
				Telemetry: TelemetryConfig{
					Interval:    5 * time.Millisecond,
					MetricsAddr: fmt.Sprintf("127.0.0.1:1940%d", r),
				},
			})
			if err != nil {
				t.Errorf("rank %d join: %v", r, err)
				return
			}
			eps[r] = ep
		}()
	}
	joinWG.Wait()
	if t.Failed() {
		return
	}
	for r := 0; r < p; r++ {
		eps[r].(TraceSetter).SetTrace(rec.Rank(r))
	}

	// Synthetic supersteps straight onto the recorder: wait is exactly
	// g·h + L, with h varying step to step so the line fit
	// can identify both parameters. Each superstep waits until the
	// coordinator has ingested it from every rank, so the push loops
	// ship one interval per superstep whatever the scheduler does.
	now := int64(0)
	for s := 0; s < steps; s++ {
		h := 100 * (s + 1)
		wait := int64(gNsPerPkt*h) + lNs
		for r := 0; r < p; r++ {
			b := rec.Rank(r)
			b.Compute(s, now, now+1_000_000, 1)
			b.SyncSpan(s, now+1_000_000, now+1_000_000+wait, h, h, 0)
			b.Pair(s, (r+1)%p, now, h*16, 1, h)
		}
		now += 1_000_000 + wait
		for caught := false; !caught; {
			watch.await(t, fmt.Sprintf("superstep %d ingested from every rank", s), isIngest)
			caught = true
			for _, row := range coord.StatusDoc().Ranks {
				caught = caught && row.Steps == int64(s+1)
			}
		}
	}

	var doc StatusDoc
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func(path string) []byte {
		resp, err := client.Get(statusURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return b
	}
	if err := json.Unmarshal(get("/status"), &doc); err != nil {
		t.Fatalf("decode /status: %v", err)
	}
	if doc.Job != "telem" || doc.P != p || len(doc.Ranks) != p {
		t.Fatalf("/status header: %+v", doc)
	}
	for r, row := range doc.Ranks {
		if row.State != "live" {
			t.Errorf("rank %d state %q, want live", r, row.State)
		}
		if row.LastStep != steps-1 || row.Steps != steps {
			t.Errorf("rank %d: last_step=%d steps=%d, want %d/%d", r, row.LastStep, row.Steps, steps-1, steps)
		}
		if row.Seq < 2 || row.Rejects != 0 || row.Baselines != 1 || row.Epoch != 0 {
			t.Errorf("rank %d stream health: seq=%d rejects=%d baselines=%d epoch=%d", r, row.Seq, row.Rejects, row.Baselines, row.Epoch)
		}
		if want := fmt.Sprintf("127.0.0.1:1940%d", r); row.MetricsAddr != want {
			t.Errorf("rank %d metrics_addr %q, want %q", r, row.MetricsAddr, want)
		}
	}
	if !doc.Calib.Fit {
		t.Fatalf("online fit not identified: %+v", doc.Calib)
	}
	if g := doc.Calib.GUsPerPkt; g < 1.6 || g > 2.4 {
		t.Errorf("fitted g = %.3f µs/pkt, want ~2.0", g)
	}
	if l := doc.Calib.LUs; l < 350 || l > 650 {
		t.Errorf("fitted L = %.1f µs, want ~500", l)
	}
	if ratio := doc.Calib.LiveRatio; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("live Eq-1 residual ratio = %.3f, want ~1.0 on exact synthetic data", ratio)
	}

	metrics := string(get("/metrics"))
	for _, want := range []string{
		fmt.Sprintf("bsp_supersteps_total{rank=\"1\"} %d", steps),
		fmt.Sprintf("bsp_last_superstep{rank=\"0\"} %d", steps-1),
		fmt.Sprintf("bsp_sent_bytes_total{rank=\"0\"} %d", 16*100*steps*(steps+1)/2),
		"bsp_telemetry_baselines_total{rank=\"1\"} 1",
		"bsp_rank_up{rank=\"0\"} 1",
		"bsp_sync_wait_seconds_bucket{le=",
		"bsp_superstep_duration_seconds_count",
		"bsp_calib_g_us_per_packet",
		"bsp_calib_residual_ratio",
		"bsp_job_epoch 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Clean shutdown: members leave; the final flush plus the leave
	// must put every rank in the "left" state with its final counters.
	for r := 0; r < p; r++ {
		eps[r].Close()
	}
	for r := 0; r < p; r++ {
		watch.await(t, "every member's connection closed", isConnLost)
	}
	final := coord.StatusDoc()
	if !final.Calib.Fit {
		t.Fatalf("final fit: %+v", final.Calib)
	}
	for r, row := range final.Ranks {
		if row.State != "left" || row.SeqGaps != 0 || row.Baselines != 1 || row.LastStep != steps-1 {
			t.Errorf("final rank %d: %+v", r, row)
		}
	}
}

// TestClusterTelemetryConviction: a convicted rank must show up in the
// /status document with the conviction recorded, and survivors stay
// visible.
func TestClusterTelemetryConviction(t *testing.T) {
	defer checkGoroutines(t)()
	const p = 2
	const suspectAfter = 300 * time.Millisecond
	coord, watch := watchCoordinator(t, p, CoordinatorOptions{
		JobID: "telem-convict", JoinTimeout: 10 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond, SuspectAfter: suspectAfter,
	})
	defer coord.Close()

	eps := make([]Endpoint, p)
	var joinWG sync.WaitGroup
	for r := 0; r < p; r++ {
		joinWG.Add(1)
		go func() {
			defer joinWG.Done()
			ep, err := JoinCluster(ClusterConfig{
				Coordinator: coord.Addr(), JobID: "telem-convict", Rank: r, P: p,
				JoinTimeout:       10 * time.Second,
				HeartbeatInterval: 25 * time.Millisecond, SuspectAfter: 5 * time.Second,
				Telemetry: TelemetryConfig{Interval: 10 * time.Millisecond},
			})
			if err != nil {
				t.Errorf("rank %d join: %v", r, err)
				return
			}
			eps[r] = ep
		}()
	}
	joinWG.Wait()
	if t.Failed() {
		return
	}

	// Rank 1 goes silent (heartbeats AND telemetry stop — a stalled
	// process sends nothing); the liveness loop must convict it.
	eps[1].(*tcpEndpoint).m.(*clusterMember).stopHeartbeats()
	watch.await(t, "rank 1 convicted", fencing(1))
	if row := coord.StatusDoc().Ranks[1]; row.Convictions != 1 || row.State != "down" || row.ConvictReason == "" {
		t.Errorf("convicted rank's row: %+v, want one conviction with a reason, state down", row)
	}
	for r := 0; r < p; r++ {
		eps[r].Close()
	}
}

// TestTelemetryIngestRejects: a frame the aggregator cannot use is
// counted in the rank's row and changes nothing else — one row per way
// a payload can be wrong. Identity is not among them: a payload has no
// rank or epoch to lie about, so the row's epoch is the connection's.
func TestTelemetryIngestRejects(t *testing.T) {
	frames := func(n int, counters ...[]int64) [][]byte {
		var enc wire.TelemetryEncoder
		out := make([][]byte, n)
		for i := range out {
			snap := wire.Telemetry{Counters: trace.Row{Steps: int64(i + 1)}.AppendValues(nil)}
			if i < len(counters) && counters[i] != nil {
				snap.Counters = counters[i]
			}
			out[i] = enc.AppendEncode(nil, &snap)
		}
		return out
	}
	good := frames(3)
	for _, tc := range []struct {
		name           string
		stream         [][]byte
		rejects, gaps  int64
		steps, lastSeq int64
	}{
		{"clean stream", good, 0, 0, 3, 3},
		{"wrong length", frames(2, nil, make([]int64, trace.NumFields-1)), 1, 0, 1, 1},
		{"truncated varint", [][]byte{good[0], good[1][:len(good[1])-1], good[1]}, 1, 0, 2, 2},
		{"gap", [][]byte{good[0], good[2], good[1]}, 1, 1, 2, 2},
		{"delta before baseline", [][]byte{good[1], good[0]}, 1, 0, 1, 1},
	} {
		a := newTelemetryAgg(2)
		for _, payload := range tc.stream {
			a.ingest(1, 7, payload, machineT0)
		}
		row := a.row(1, machineT0.UnixNano(), 0, false, false)
		if row.Rejects != tc.rejects || row.SeqGaps != tc.gaps || row.Steps != tc.steps || int64(row.Seq) != tc.lastSeq || row.Epoch != 7 || row.Baselines != 1 {
			t.Errorf("%s: rejects=%d gaps=%d steps=%d seq=%d epoch=%d baselines=%d, want %d/%d/%d/%d/7/1",
				tc.name, row.Rejects, row.SeqGaps, row.Steps, row.Seq, row.Epoch, row.Baselines, tc.rejects, tc.gaps, tc.steps, tc.lastSeq)
		}
		if other := a.row(0, machineT0.UnixNano(), 0, false, false); other.State != "silent" || other.Rejects != 0 {
			t.Errorf("%s: rank 0 sent nothing, its row reads %+v", tc.name, other)
		}
	}
}
