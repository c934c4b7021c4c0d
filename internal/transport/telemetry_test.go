package transport

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// TestClusterTelemetryAggregation is the end-to-end pass over the live
// telemetry plane inside one process: p members join a coordinator
// and beat every 5ms, their recorders observe synthetic supersteps
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
	eps := joinGang(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "telem", P: p, JoinTimeout: 10 * time.Second,
		HeartbeatInterval: 5 * time.Millisecond, SuspectAfter: 5 * time.Second,
		MetricsAddr: "127.0.0.1:19400",
	})
	for r := 0; r < p; r++ {
		eps[r].(TraceSetter).SetTrace(rec.Rank(r))
	}

	// Synthetic supersteps straight onto the recorder: wait is exactly
	// g·h + L, with h varying step to step so the line fit
	// can identify both parameters. Each superstep waits until the
	// coordinator has ingested it from every rank, so the beats ship
	// one interval per superstep whatever the scheduler does.
	now := int64(0)
	for s := 0; s < steps; s++ {
		h := 100 * (s + 1)
		wait := int64(gNsPerPkt*h) + lNs
		for r := 0; r < p; r++ {
			b := rec.Rank(r)
			b.Compute(s, now, now+1_000_000, 1)
			b.SyncSpan(s, now+1_000_000, now+1_000_000+wait, h, h, 0)
			b.Pair(s, (r+1)%p, now, h*16*(r+1), 1, h) // rank-distinct bytes
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
		if wantBytes := int64(16 * 100 * steps * (steps + 1) / 2 * (r + 1)); row.LastStep != steps-1 || row.Steps != steps || row.PairBytes != wantBytes {
			t.Errorf("rank %d: last_step=%d steps=%d pair_bytes=%d, want %d/%d/%d", r, row.LastStep, row.Steps, row.PairBytes, steps-1, steps, wantBytes)
		}
		if row.Seq < 2 || row.Rejects != 0 || row.Baselines != 1 || row.Epoch != 0 {
			t.Errorf("rank %d stream health: seq=%d rejects=%d baselines=%d epoch=%d", r, row.Seq, row.Rejects, row.Baselines, row.Epoch)
		}
		if row.MetricsAddr != "127.0.0.1:19400" {
			t.Errorf("rank %d metrics_addr %q, want the configured one", r, row.MetricsAddr)
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

	// Clean shutdown: members leave; the final beat plus the leave must
	// put every rank in the "left" state with its final counters.
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
		if row.State != "left" || row.Rejects != 0 || row.Baselines != 1 || row.LastStep != steps-1 {
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

	eps := joinGang(t, ClusterConfig{
		Coordinator: coord.Addr(), JobID: "telem-convict", P: p, JoinTimeout: 10 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond, SuspectAfter: 5 * time.Second,
	})

	// Rank 1 goes silent (its beats, and with them its telemetry, stop —
	// a stalled process sends nothing); the liveness loop must convict
	// it.
	eps[1].(*tcpEndpoint).m.(*clusterMember).stopHeartbeats()
	watch.await(t, "rank 1 convicted", fencing(1))
	if row := coord.StatusDoc().Ranks[1]; row.Convictions != 1 || row.State != "down" || row.ConvictReason == "" {
		t.Errorf("convicted rank's row: %+v, want one conviction with a reason, state down", row)
	}
	for r := 0; r < p; r++ {
		eps[r].Close()
	}
}

// TestClusterTelemetryRejoin: a rank's /status counters are its
// processes' recorders, summed once each. Two ranks record supersteps at
// epoch 0, rank 0 aborts, and both rejoin at epoch 1 and record more —
// what core.Run's warm retry does. A survivor keeps its recorder, so its
// rejoin continues one incarnation; a relaunched process brings a fresh
// recorder, which starts a second one whose counts add to the first's.
func TestClusterTelemetryRejoin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fresh bool // rank 1 rejoins with a new recorder
	}{
		{"survivors keep their recorders", false},
		{"rank 1 relaunched with a fresh recorder", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer checkGoroutines(t)()
			const p = 2
			coord, watch := watchCoordinator(t, p, CoordinatorOptions{
				JobID: "rejoin", JoinTimeout: 10 * time.Second,
				HeartbeatInterval: 20 * time.Millisecond, SuspectAfter: 5 * time.Second,
			})
			defer coord.Close()
			join := func(epoch int, recs []*trace.Recorder) []Endpoint {
				eps := joinGang(t, ClusterConfig{
					Coordinator: coord.Addr(), JobID: "rejoin", Epoch: epoch, P: p, JoinTimeout: 10 * time.Second,
					HeartbeatInterval: 5 * time.Millisecond, SuspectAfter: 5 * time.Second,
				})
				for r, ep := range eps {
					ep.(TraceSetter).SetTrace(recs[r].Rank(r))
				}
				return eps
			}
			// record runs supersteps [from, to) on every rank and waits
			// until /status shows want[r] steps for each. Beats keep
			// coming, so a count that never gets there fails by deadline.
			record := func(recs []*trace.Recorder, from, to int, want []int64) {
				for s := from; s < to; s++ {
					for r, rec := range recs {
						b := rec.Rank(r)
						b.Compute(s, 0, 1_000, 1)
						b.SyncSpan(s, 1_000, 2_000, 1, 1, 0)
					}
				}
				deadline := time.Now().Add(10 * time.Second)
				for {
					var got []int64
					for _, row := range coord.StatusDoc().Ranks {
						got = append(got, row.Steps)
					}
					if slices.Equal(got, want) {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("/status counts steps %v, the ranks' recorders %v", got, want)
					}
					watch.await(t, fmt.Sprintf("steps %v ingested", want), isIngest)
				}
			}

			recs := []*trace.Recorder{trace.New(p), trace.New(p)}
			eps := join(0, recs)
			record(recs, 0, 3, []int64{3, 3})
			eps[0].Abort()
			watch.await(t, "the abort fenced epoch 0", fencing(-1))
			for _, ep := range eps {
				ep.Close()
			}
			// Each recorder is counted once: the survivors' 5 steps, or the
			// dead process's 3 plus its replacement's 2.
			baselines := []int64{1, 1}
			if tc.fresh {
				recs[1], baselines[1] = trace.New(p), 2
			}
			eps = join(1, recs)
			record(recs, 3, 5, []int64{5, 5})
			for r, row := range coord.StatusDoc().Ranks {
				own := recs[r].Metrics().Rank(r).Steps + 3*(baselines[r]-1)
				if row.Steps != own || row.Baselines != baselines[r] || row.Epoch != 1 || row.Rejects != 0 {
					t.Errorf("rank %d: steps=%d baselines=%d epoch=%d rejects=%d, want %d/%d/1/0",
						r, row.Steps, row.Baselines, row.Epoch, row.Rejects, own, baselines[r])
				}
			}
			for _, ep := range eps {
				ep.Close()
			}
		})
	}
}

// TestTelemetryIngestRejects: a tail the aggregator cannot use is
// counted in the rank's row and changes nothing else — one row per way
// a tail can be wrong. Identity is not among them: a tail has no rank
// or epoch to lie about, so the row's epoch is its beat's.
func TestTelemetryIngestRejects(t *testing.T) {
	const recEpoch = 1_700_000_000_000_000_000
	tail := func(steps int64, width int) []byte {
		counters := trace.Row{Steps: steps}.AppendValues(nil)[:width]
		return wire.AppendTelemetry(nil, &wire.Telemetry{Epoch: recEpoch, Counters: counters})
	}
	good := [][]byte{tail(1, trace.NumFields), tail(2, trace.NumFields), tail(3, trace.NumFields)}
	// The same tail as good[1] with its row width spelled in two bytes.
	prefix := len(binary.AppendVarint(nil, recEpoch))
	padded := append(append(append([]byte{}, good[1][:prefix]...), good[1][prefix]|0x80, 0), good[1][prefix+1:]...)
	for _, tc := range []struct {
		name           string
		stream         [][]byte
		rejects        int64
		steps, lastSeq int64
	}{
		{"clean stream", good, 0, 3, 3},
		{"wrong row width", [][]byte{good[0], tail(2, trace.NumFields-1)}, 1, 1, 1},
		{"truncated varint", [][]byte{good[0], good[1][:len(good[1])/2], good[1]}, 1, 2, 3},
		{"padded or trailing bytes", [][]byte{good[0], padded, append(append([]byte{}, good[1]...), 0)}, 2, 1, 1},
	} {
		a := newTelemetryAgg(2)
		for i, b := range tc.stream {
			a.ingest(wire.Heartbeat{Rank: 1, Epoch: 7, Seq: uint32(i + 1)}, b, machineT0)
		}
		row := a.row(1, machineT0.UnixNano(), 0, false, false)
		if row.Rejects != tc.rejects || row.Steps != tc.steps || int64(row.Seq) != tc.lastSeq || row.Epoch != 7 || row.Baselines != 1 {
			t.Errorf("%s: rejects=%d steps=%d seq=%d epoch=%d baselines=%d, want %d/%d/%d/7/1",
				tc.name, row.Rejects, row.Steps, row.Seq, row.Epoch, row.Baselines, tc.rejects, tc.steps, tc.lastSeq)
		}
		if other := a.row(0, machineT0.UnixNano(), 0, false, false); other.State != "silent" || other.Rejects != 0 {
			t.Errorf("%s: rank 0 sent nothing, its row reads %+v", tc.name, other)
		}
	}
}
