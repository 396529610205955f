package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seviri"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// driftWindow is a short midday stretch of the benchmark window, where
// fires are active and time persistence has history to read.
func driftWindow() []time.Time {
	return windowTimes(scenarioConfig(), windowAcquisitions)[36:46]
}

// refinedDigests extracts every acquisition's refined product digest.
func refinedDigests(t *testing.T, svc *core.Service, times []time.Time) []string {
	t.Helper()
	var out []string
	for _, at := range times {
		res, err := svc.Refiner.CurrentHotspots(at)
		if err != nil {
			t.Fatalf("extract %s: %v", at.Format(time.RFC3339), err)
		}
		out = append(out, productDigest(seviri.MSG1.Name, at, res))
	}
	return out
}

func compareReports(t *testing.T, what string, want, got []core.AcquisitionReport, wantDig, gotDig []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].RawHotspot != want[i].RawHotspot || got[i].Refined != want[i].Refined {
			t.Errorf("%s: acquisition %s: raw/refined %d/%d, want %d/%d", what, want[i].At.Format(time.RFC3339),
				got[i].RawHotspot, got[i].Refined, want[i].RawHotspot, want[i].Refined)
		}
		if gotDig[i] != wantDig[i] {
			t.Errorf("%s: acquisition %s: refined product differs", what, want[i].At.Format(time.RFC3339))
		}
	}
}

// TestComposedPathMatchesService holds the benchmark to the program it
// measures: the acquisition workload's composed step, untraced and
// traced, must service a window exactly as Service.RunWindowSequential
// does, and the backlog workload's pipeline over a sharded store must
// refine it identically. A change to Service.Step that the composition
// does not mirror fails here instead of silently changing what the
// benchmark measures.
func TestComposedPathMatchesService(t *testing.T) {
	if testing.Short() {
		t.Skip("services a window of acquisitions")
	}
	sim := benchSimulator(7)
	times := driftWindow()
	span := time.Duration(len(times)) * seviri.MSG1.Cadence

	ref, _, err := newService(strabon.New(), sim)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunWindowSequential(seviri.MSG1, times[0], span); err != nil {
		t.Fatal(err)
	}
	want := refinedDigests(t, ref, times)
	raw := 0
	for _, r := range ref.Reports {
		raw += r.RawHotspot
	}
	if raw == 0 {
		t.Fatal("the drift window detects no hotspots; pick a window with active fires")
	}

	scenes, _, err := renderWindow(sim, times)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		svc, _, err := newService(strabon.New(), sim)
		if err != nil {
			t.Fatal(err)
		}
		var digests []string
		for _, acq := range scenes {
			step := stepRendered
			if traced {
				step = func(svc *core.Service, acq *seviri.RawAcquisition) (*core.AcquisitionReport, *stsparql.Result, error) {
					return stepTraced(svc, acq, newTracer(), newLayerTotals())
				}
			}
			_, res, err := step(svc, acq)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, productDigest(seviri.MSG1.Name, acq.Timestamp, res))
		}
		what := "composed step"
		if traced {
			what = "traced composed step"
		}
		compareReports(t, what, ref.Reports, svc.Reports, want, digests)
	}

	bp := &backlogPass{}
	svc, err := bp.build(sim)
	if err != nil {
		t.Fatal(err)
	}
	svc.Workers = 2
	if err := svc.RunWindow(seviri.MSG1, times[0], span); err != nil {
		t.Fatal(err)
	}
	compareReports(t, "pipeline over shards", ref.Reports, svc.Reports, want, refinedDigests(t, svc, times))
}

func TestCovered(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30}, {Start: 20, End: 40}, // overlapping: 10..40
		{Start: 90, End: 120},  // clipped to the parent: 90..100
		{Start: 150, End: 160}, // outside
	}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}
