package trace

// RowOf declares the per-rank counter set once, for both of its
// storage forms: Row (plain int64s — a snapshot, a telemetry frame's
// payload, a /status row) and the atomic cells Metrics folds events
// into. Every field is cumulative since the recorder was created,
// except the gauges (Field.Type), which hold a last value. Adding a
// counter is one field here, one pointer in fieldsOf, one Fields entry
// and one case in Metrics.observe; the wire codec, the aggregator, the
// JSON documents and the Prometheus exposition pick it up by position.
type RowOf[T any] struct {
	LastStep T `json:"last_step"`
	Steps    T `json:"steps"`
	WorkNs   T `json:"work_ns"`
	WaitNs   T `json:"wait_ns"`
	SentPkts T `json:"sent_pkts"`
	RecvPkts T `json:"recv_pkts"`
	// PairBytes is the rank's row of the pair matrix summed over
	// destinations.
	PairBytes T `json:"pair_bytes"`

	CkptSaves T `json:"ckpt_saves"`
	CkptBytes T `json:"ckpt_bytes"`
	Restores  T `json:"restores"`
	Rollbacks T `json:"rollbacks"`
	Faults    T `json:"faults"`
	Suspects  T `json:"suspects"`

	Heartbeats         T `json:"heartbeats"`
	HeartbeatMisses    T `json:"heartbeat_misses"`
	WarmRestarts       T `json:"warm_restarts"`
	RTTNs              T `json:"rtt_ns"`
	RTTCount           T `json:"rtt_count"`
	LastHeartbeatSeq   T `json:"last_heartbeat_seq"`
	LastHeartbeatEpoch T `json:"last_heartbeat_epoch"`

	// Written by the coordinator's telemetry aggregator about the rank's
	// stream, never by the rank itself (its beats carry zeros here).
	Baselines   T `json:"baselines"`
	Rejects     T `json:"rejects"`
	Convictions T `json:"convictions"`
}

// Row is one rank's counters as plain data.
type Row = RowOf[int64]

// NumFields is the width of a Row on the wire.
const NumFields = len(Fields)

// fieldsOf addresses the fields of r in Fields order.
func fieldsOf[T any](r *RowOf[T]) [NumFields]*T {
	return [NumFields]*T{
		&r.LastStep, &r.Steps, &r.WorkNs, &r.WaitNs, &r.SentPkts, &r.RecvPkts, &r.PairBytes,
		&r.CkptSaves, &r.CkptBytes, &r.Restores, &r.Rollbacks, &r.Faults, &r.Suspects,
		&r.Heartbeats, &r.HeartbeatMisses, &r.WarmRestarts, &r.RTTNs, &r.RTTCount,
		&r.LastHeartbeatSeq, &r.LastHeartbeatEpoch,
		&r.Baselines, &r.Rejects, &r.Convictions,
	}
}

// Field describes one Row field to everything that renders it.
type Field struct {
	Name string // JSON key in /status, -status-dump, expvar and postmortem dumps
	Prom string // Prometheus family, labelled {rank="i"}
	Type string // "counter", or "gauge": a last value, not summed across incarnations
	Unit string // native unit; "ns" is exported to Prometheus in seconds
	Feed string // the event (or coordinator action) that writes it
	Help string
}

// Fields is the one table of per-rank quantities, in RowOf order.
// DESIGN §8 prints it; TestRowFieldTable holds it to the struct.
var Fields = [...]Field{
	{"last_step", "bsp_last_superstep", "gauge", "step", "sync", "Newest completed global superstep (-1 before the first)."},
	{"steps", "bsp_supersteps_total", "counter", "steps", "sync", "Supersteps completed."},
	{"work_ns", "bsp_work_seconds_total", "counter", "ns", "compute", "Local computation."},
	{"wait_ns", "bsp_wait_seconds_total", "counter", "ns", "sync", "Barrier and exchange time."},
	{"sent_pkts", "bsp_sent_packets_total", "counter", "pkts", "sync", "Packet units sent."},
	{"recv_pkts", "bsp_recv_packets_total", "counter", "pkts", "sync", "Packet units received."},
	{"pair_bytes", "bsp_sent_bytes_total", "counter", "bytes", "pair", "Batch bytes shipped to all destinations."},
	{"ckpt_saves", "bsp_checkpoint_snapshots_total", "counter", "records", "checkpoint save", "Snapshot records written."},
	{"ckpt_bytes", "bsp_checkpoint_bytes_total", "counter", "bytes", "checkpoint save", "Snapshot bytes written."},
	{"restores", "bsp_restores_total", "counter", "events", "restore", "Restores from a snapshot."},
	{"rollbacks", "bsp_rollbacks_total", "counter", "events", "rollback", "Machine rollbacks (recovery re-executions) the rank went through."},
	{"faults", "bsp_faults_total", "counter", "events", "fault", "Injected chaos faults observed."},
	{"suspects", "bsp_suspects_total", "counter", "events", "fault (liveness suspect)", "Peers this rank learned were declared crashed."},
	{"heartbeats", "bsp_heartbeats_total", "counter", "beats", "heartbeat", "Liveness heartbeats sent on the control plane."},
	{"heartbeat_misses", "bsp_heartbeat_misses_total", "counter", "events", "heartbeat miss", "Heartbeat intervals that passed without a coordinator beat."},
	{"warm_restarts", "bsp_warm_restarts_total", "counter", "events", "warm restart", "Single-rank relaunches of a peer this rank rolled back for."},
	{"rtt_ns", "bsp_heartbeat_echo_seconds_total", "counter", "ns", "heartbeat (echo)", "Summed heartbeat round trips, send to coordinator echo."},
	{"rtt_count", "bsp_heartbeat_echoes_total", "counter", "echoes", "heartbeat (echo)", "Heartbeat round trips measured."},
	{"last_heartbeat_seq", "bsp_heartbeat_last_seq", "gauge", "seq", "heartbeat", "Sequence number of the newest heartbeat sent."},
	{"last_heartbeat_epoch", "bsp_heartbeat_last_epoch", "gauge", "epoch", "heartbeat", "Gang epoch the newest heartbeat was sent in."},
	{"baselines", "bsp_telemetry_baselines_total", "counter", "frames", "coordinator: ingest", "Telemetry frames that began an incarnation (one per recorder)."},
	{"rejects", "bsp_telemetry_rejects_total", "counter", "frames", "coordinator: ingest", "Telemetry tails rejected as malformed."},
	{"convictions", "bsp_convictions_total", "counter", "events", "coordinator: fence", "Times the failure detector convicted the rank."},
}

// AppendValues appends the row's values to dst in Fields order — the
// counter vector of a telemetry frame. Allocation-free given capacity.
func (r RowOf[T]) AppendValues(dst []T) []T {
	for _, p := range fieldsOf(&r) {
		dst = append(dst, *p)
	}
	return dst
}

// RowFromValues is the inverse of AppendValues; ok is false when vals
// is not exactly one row wide.
func RowFromValues(vals []int64) (r Row, ok bool) {
	if len(vals) != NumFields {
		return r, false
	}
	for i, p := range fieldsOf(&r) {
		*p = vals[i]
	}
	return r, true
}

// AddCounters adds o's counters to r, leaving r's gauges alone: how a
// dead incarnation's totals are folded under the live one's.
func AddCounters(r, o *Row) {
	dst, src := fieldsOf(r), fieldsOf(o)
	for i, f := range Fields {
		if f.Type == "counter" {
			*dst[i] += *src[i]
		}
	}
}
