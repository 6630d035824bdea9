package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{0, 50, 0},
		{5, 50, 2},
		{99, 50, 49},
		{100, 90, 10},
		{999, 90, 99},
		{1000, 99, 10},
		{9999, 99, 99},
		{10000, 99.9, 10},
		{100000, 99.99, 10},
		{1000000, 99.99, 100},
	} {
		pct, beyond := tailPercentile(tc.n)
		if pct != tc.pct || beyond != tc.beyond {
			t.Errorf("tailPercentile(%d) = p%v with %d beyond, want p%v with %d", tc.n, pct, beyond, tc.pct, tc.beyond)
		}
	}

	// 1000 latencies 1..1000 ms: p50 is the 500th, p99 the 990th, with
	// exactly 10 samples beyond it.
	var ss []sample
	for i := 1000; i >= 1; i-- {
		ss = append(ss, sample{lat: time.Duration(i) * time.Millisecond})
	}
	ss = append(ss, sample{lat: time.Hour, err: io.EOF}) // failures carry no latency
	st := summarize(ss)
	if st.n != 1000 || st.failures != 1 || st.p50 != 500 || st.tailPct != 99 || st.tail != 990 || st.beyond != 10 {
		t.Errorf("summarize = %+v, want n=1000 failures=1 p50=500 p99=990 beyond=10", st)
	}
}

// TestOpenLoopStall stalls the handler for 200ms: every request due in
// the stall must be timed from its due time, so its latency includes
// the wait, and the generator must report running late.
func TestOpenLoopStall(t *testing.T) {
	start := time.Now()
	stallFrom, stallTo := start.Add(200*time.Millisecond), start.Add(400*time.Millisecond)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if now := time.Now(); now.After(stallFrom) && now.Before(stallTo) {
			time.Sleep(time.Until(stallTo))
		}
	}))
	defer srv.Close()
	op := func(ctx context.Context, _ int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}
	const rate = 100.0
	ss := openLoop(context.Background(), rate, time.Second, 2, 0, op)
	if len(ss) != 100 {
		t.Fatalf("got %d samples, want 100", len(ss))
	}
	// Requests due between 250ms and 350ms cannot complete before the
	// stall ends at 400ms (both senders are stuck in it).
	for i := 25; i < 35; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if want := 400*time.Millisecond - due - 10*time.Millisecond; ss[i].lat < want {
			t.Errorf("request %d due at %v: latency %v, want at least %v", i, due, ss[i].lat, want)
		}
	}
	st := summarize(ss)
	if st.lateP99 < 50 {
		t.Errorf("late p99 = %.1fms after a 200ms stall, want at least 50ms", st.lateP99)
	}
	if st.tail < 100 {
		t.Errorf("p%v latency = %.1fms after a 200ms stall, want at least 100ms", st.tailPct, st.tail)
	}
}

// TestSelfTimeParallelChildren checks union-based self time and the
// attribution of one request over two overlapping shard RPCs:
//
//	client  [0,100]
//	router    [10,90]
//	rpc a       [20,60]    shard a [25,55]
//	rpc b           [40,80]    shard b [45,75]
func TestSelfTimeParallelChildren(t *testing.T) {
	at := func(id, parent uint64, layer string, lo, hi time.Duration) *span {
		return &span{trace: 1, id: id, parent: parent, layer: layer, start: lo * time.Millisecond, end: hi * time.Millisecond}
	}
	client := at(1, 0, "client", 0, 100)
	router := at(2, 1, "router", 10, 90)
	rpcA, rpcB := at(3, 2, "rpc", 20, 60), at(4, 2, "rpc", 40, 80)
	shardA, shardB := at(5, 3, "shard", 25, 55), at(6, 4, "shard", 45, 75)
	trees := buildTrees([]*span{shardA, rpcA, shardB, router, rpcB, client})
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	for _, tc := range []struct {
		s    *span
		want time.Duration
	}{
		{client, 20}, {router, 20}, {rpcA, 10}, {rpcB, 10}, {shardA, 30}, {shardB, 30},
	} {
		if got := tr.selfTime(tc.s); got != tc.want*time.Millisecond {
			t.Errorf("self time of %s %d = %v, want %vms", tc.s.layer, tc.s.id, got, tc.want)
		}
	}
	share := tr.attribute()
	var sum time.Duration
	for _, d := range share {
		sum += d
	}
	if sum != client.dur() {
		t.Errorf("shares sum to %v, want the client span %v", sum, client.dur())
	}
	for _, tc := range []struct {
		s    *span
		want time.Duration
	}{
		{client, 20}, {router, 20}, {rpcA, 5}, {rpcB, 5}, {shardA, 25}, {shardB, 25},
	} {
		if got := share[tc.s]; got != tc.want*time.Millisecond {
			t.Errorf("share of %s %d = %v, want %vms", tc.s.layer, tc.s.id, got, tc.want)
		}
	}

	// A child outliving its parent is clipped to it.
	late := at(7, 2, "rpc", 85, 120)
	tr = buildTrees([]*span{client, router, late})[0]
	if got := tr.selfTime(router); got != 75*time.Millisecond {
		t.Errorf("router self time with a late child = %v, want 75ms", got)
	}
	share = tr.attribute()
	if share[late] != 5*time.Millisecond || share[client]+share[router]+share[late] != client.dur() {
		t.Errorf("clipped shares = client %v router %v rpc %v", share[client], share[router], share[late])
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload for a second on 5% of the data, with
// verification, untraced and traced, and checks the result carries
// exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fleets")
	}
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(t.Context(), runConfig{
				w: w, seed: 7, seconds: 1, trace: traced, scale: 0.05, setups: 1,
				dir: filepath.Join(t.TempDir(), "run"), log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
