package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Shard is one process's slice of a multi-process run's trace: the
// events its Recorder collected for the rank(s) it hosted, stamped
// with the job identity and the recorder's wall-clock epoch. Each
// bsprun -cluster worker writes one shard; the launcher merges them
// (MergeShards) into a single Recorder whose exporters and audits —
// Chrome JSON, reports, Check — then work exactly as for an in-process
// run.
type Shard struct {
	// Job is the cluster job id; shards of different jobs never merge.
	Job string `json:"job"`
	// Rank is the rank the writing process hosted; P the machine width.
	Rank int `json:"rank"`
	P    int `json:"p"`
	// EpochUnixNano is the wall-clock time of the writing Recorder's
	// epoch (its time zero). Merging shifts every shard's events onto
	// the earliest shard's axis using the wall-clock deltas — loopback
	// processes share a clock, so the cross-process skew is the wall
	// clock's own resolution, far below a superstep.
	EpochUnixNano int64 `json:"epoch_unix_nano"`
	// Events are the recorder's events (Recorder.Events order).
	Events []Event `json:"events"`
}

// EpochWall returns the wall-clock time of the recorder's epoch.
func (r *Recorder) EpochWall() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// EpochWall returns the wall-clock time of the epoch of the recorder
// this buffer belongs to: what its counters count from.
func (b *Buf) EpochWall() time.Time {
	if b == nil {
		return time.Time{}
	}
	return b.epoch
}

// Shard extracts this recorder's events as one process's shard. Call
// it only when the machine is quiescent.
func (r *Recorder) Shard(job string, rank int) Shard {
	return Shard{
		Job:           job,
		Rank:          rank,
		P:             r.P(),
		EpochUnixNano: r.epoch.UnixNano(),
		Events:        r.Events(),
	}
}

// WriteShardFile writes the shard as JSON to path (0644, truncating).
func WriteShardFile(path string, s Shard) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadShardFile reads a shard written by WriteShardFile.
func ReadShardFile(path string) (Shard, error) {
	var s Shard
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("trace: shard %s: %w", path, err)
	}
	return s, nil
}

// MergeShardDir merges every shard file (*.json) the rank processes of
// one job left in dir.
func MergeShardDir(dir string) (*Recorder, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no trace shards in %s (did every rank die before its first superstep?)", dir)
	}
	shards := make([]Shard, 0, len(paths))
	for _, p := range paths {
		s, err := ReadShardFile(p)
		if err != nil {
			return nil, err
		}
		shards = append(shards, s)
	}
	return MergeShards(shards)
}

// MergeShards folds per-process shards of one job into a single
// Recorder on a common time axis: the earliest shard's epoch becomes
// time zero and every other shard's events are shifted by the
// wall-clock delta between epochs. Shards must agree on the job id and
// the machine width; a rank may appear in several shards (successive
// gang generations of a recovered run), whose events interleave by
// time. Every surviving process of a recovered run records the same
// rollback in its own shard, so the machine track keeps the earliest
// rollback of each (attempt, resume step): one marker per recovery. The
// merged recorder is quiescent: use its exporters (WriteChromeFile,
// reports), not its buffers.
func MergeShards(shards []Shard) (*Recorder, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("trace: no shards to merge")
	}
	job, p := shards[0].Job, shards[0].P
	base := shards[0].EpochUnixNano
	for _, s := range shards {
		if s.Job != job {
			return nil, fmt.Errorf("trace: shard job %q does not match %q", s.Job, job)
		}
		if s.P != p {
			return nil, fmt.Errorf("trace: shard for p=%d does not match p=%d", s.P, p)
		}
		if s.EpochUnixNano < base {
			base = s.EpochUnixNano
		}
	}
	r := New(p)
	for _, s := range shards {
		delta := s.EpochUnixNano - base
		for _, e := range s.Events {
			e.Start += delta
			e.End += delta
			if e.Rank == MachineRank {
				r.machine = append(r.machine, e)
				continue
			}
			if int(e.Rank) < 0 || int(e.Rank) >= p {
				return nil, fmt.Errorf("trace: shard of job %q carries event for rank %d (p=%d)", job, e.Rank, p)
			}
			b := r.bufs[e.Rank]
			b.events = append(b.events, e)
		}
	}
	// Restore the per-rank invariant the exporters rely on: append
	// order == time order within a rank (shards of the same rank from
	// successive generations arrive as separate batches).
	for _, b := range r.bufs {
		sort.SliceStable(b.events, func(i, j int) bool { return b.events[i].Start < b.events[j].Start })
	}
	sort.SliceStable(r.machine, func(i, j int) bool { return r.machine[i].Start < r.machine[j].Start })
	type recovery struct{ attempt, resume int64 }
	seen := map[recovery]bool{}
	kept := r.machine[:0]
	for _, e := range r.machine {
		if e.Kind == KindRollback {
			k := recovery{e.A, e.B}
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		kept = append(kept, e)
	}
	r.machine = kept
	return r, nil
}
