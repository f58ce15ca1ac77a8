package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// heldOutSeed is a seed none of the pinned digests or tuning runs used.
const heldOutSeed = 914_237

func TestSmallRunsPassTheirChecks(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			ck := newChecker(false)
			res, err := timedRun(name, heldOutSeed, smallSize, 0, ck, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d operations failed: %v", res.Correct, res.Failed, res.Attempted, ck.problems)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("traced run of every workload")
	}
	dir := t.TempDir()
	ck := newChecker(false)
	res, err := tracedRun("serve", heldOutSeed, smallSize, dir, ck, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, ck.problems)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	if _, err := os.Stat(dir + "/spans-serve-seed914237.jsonl"); err != nil {
		t.Error(err)
	}
}

// TestPinnedDigests runs one full-size pass of every workload at the
// default seed: every digested output must have a pinned digest and
// match it.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size passes")
	}
	ck := newChecker(true)
	for _, name := range workloadOrder {
		w := workloads[name](defaultSeed, fullSize)
		if _, err := measurePass(w, nil); err != nil {
			t.Fatal(err)
		}
		w.check(ck)
		w.close()
	}
	names := make([]string, 0, len(ck.first))
	for name := range ck.first {
		names = append(names, name)
		if _, ok := pinnedDigests[name]; !ok {
			t.Errorf("output %s has no pinned digest", name)
		}
	}
	if len(names) != len(pinnedDigests) {
		t.Errorf("%d digested outputs, %d pinned", len(names), len(pinnedDigests))
	}
	if ck.failed != 0 || t.Failed() {
		sort.Strings(names)
		var pins strings.Builder
		pins.WriteString("var pinnedDigests = map[string]string{\n")
		for _, name := range names {
			fmt.Fprintf(&pins, "\t%q: %q,\n", name, ck.first[name])
		}
		pins.WriteString("}")
		t.Fatalf("%d operations failed: %v\nthe outputs' digests are:\n%s", ck.failed, ck.problems, pins.String())
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * ms, End: 50 * ms},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past root
		{ID: 4, Parent: 1, Name: "a1", Start: 15 * ms, End: 25 * ms},
		{ID: 5, Parent: 4, Name: "a1x", Start: 16 * ms, End: 18 * ms},
		{ID: 6, Parent: -1, Name: "other", Start: 200 * ms, End: 210 * ms},
	}
	want := []time.Duration{
		100*time.Millisecond - 40*time.Millisecond - 10*time.Millisecond, // a∪b = [10,50), c clipped to [90,100)
		30*time.Millisecond - 10*time.Millisecond,
		20 * time.Millisecond,
		30 * time.Millisecond,
		10*time.Millisecond - 2*time.Millisecond,
		2 * time.Millisecond,
		10 * time.Millisecond,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := newSchedule(heldOutSeed, smallSize), newSchedule(heldOutSeed, smallSize)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from one seed differ")
	}
	if reflect.DeepEqual(a.reqs, newSchedule(heldOutSeed+1, smallSize).reqs) {
		t.Error("schedules of two seeds have the same requests")
	}
	misses := 0
	seen := map[int]bool{}
	for _, rq := range a.reqs {
		if rq.hit != seen[rq.cfg] {
			t.Fatalf("config %d: planned hit %v, but requested before: %v", rq.cfg, rq.hit, seen[rq.cfg])
		}
		seen[rq.cfg] = true
		if !rq.hit {
			misses++
		}
	}
	if misses != smallSize.serveConfigs {
		t.Errorf("%d planned misses, want %d", misses, smallSize.serveConfigs)
	}
}

func TestPlannedDispositionsMatchTheServer(t *testing.T) {
	w := newServe(heldOutSeed, smallSize)
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	w.run(nil)
	for i, rq := range w.sched.reqs {
		want := "miss"
		if rq.hit {
			want = "hit"
		}
		if got := w.resps[i].disposition; got != want {
			t.Errorf("request %d (config %d): X-Earmac-Cache %q, planned %q", i, rq.cfg, got, want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads %v, want %v", names, workloadOrder)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Better != "lower" || e.Bound == nil {
			t.Errorf("end_to_end[%d] = %+v, want %s in %s, lower, with a bound", i, e, m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if e := b.PerLayer[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, want %s in %s, %s, no bound", i, e, m.name, m.unit, m.better)
		}
	}
}
