package transport

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestFaultPlanStringRoundTrip pins the contract documented on
// FaultPlan.String: parsing the rendered plan reproduces the plan, so
// the "[plan ...]" fragment in a chaos-induced error is sufficient to
// re-run the exact faulted schedule.
func TestFaultPlanStringRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"seed=42",
		"seed=42,delay=0.1,maxdelay=2ms,stall=0.05,stallfor=20ms",
		"abort=1@3",
		"crash=1:3",
		"seed=7,crash=0:1,ranks=0+2,steps=2-5",
		"delay=1e-09,maxdelay=1h30m",
		"abort=0@2,crash=3:9",
	}
	for _, spec := range specs {
		pl, err := ParseFaultPlan(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		again, err := ParseFaultPlan(pl.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", pl.String(), spec, err)
		}
		if !reflect.DeepEqual(pl, again) {
			t.Fatalf("round trip of %q drifted:\n  first:  %+v\n  second: %+v\n  spec:   %q",
				spec, pl, again, pl.String())
		}
	}
}

// TestFaultPlanStringRoundTripProperty: the same identity over randomly
// generated plans covering every field, including values the curated
// table above misses (negative seeds, denormal-ish rates, long rank
// lists, half-open step windows).
func TestFaultPlanStringRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	for i := 0; i < 2000; i++ {
		pl := FaultPlan{
			Seed:      rng.Int63() - rng.Int63(),
			DelayRate: randRate(rng),
			MaxDelay:  randDuration(rng),
			StallRate: randRate(rng),
			Stall:     randDuration(rng),
		}
		if rng.Intn(2) == 0 {
			pl.AbortRank, pl.AbortStep = rng.Intn(16), rng.Intn(10)
		}
		if rng.Intn(2) == 0 {
			pl.CrashRank, pl.CrashStep = rng.Intn(16), rng.Intn(10)
		}
		if n := rng.Intn(4); n > 0 {
			for j := 0; j < n; j++ {
				pl.Ranks = append(pl.Ranks, rng.Intn(32))
			}
		}
		switch rng.Intn(3) {
		case 1:
			pl.FromStep = 1 + rng.Intn(8)
		case 2:
			pl.FromStep, pl.ToStep = 1+rng.Intn(8), 1+rng.Intn(8)
		}
		again, err := ParseFaultPlan(pl.String())
		if err != nil {
			t.Fatalf("case %d: re-parse %q: %v", i, pl.String(), err)
		}
		if !reflect.DeepEqual(pl, again) {
			t.Fatalf("case %d: round trip drifted:\n  plan:   %+v\n  parsed: %+v\n  spec:   %q",
				i, pl, again, pl.String())
		}
	}
}

// randRate draws a probability across many magnitudes (0, tiny,
// ordinary, 1).
func randRate(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Float64() * 1e-9
	case 2:
		return rng.Float64()
	default:
		return 1
	}
}

// randDuration draws durations from nanoseconds to hours, zero
// included.
func randDuration(rng *rand.Rand) time.Duration {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Int63n(1000))
	case 2:
		return time.Duration(rng.Int63n(int64(time.Second)))
	default:
		return time.Duration(rng.Int63n(int64(100 * time.Hour)))
	}
}
