package main

import (
	"context"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/monitor"
	"repro/internal/storage"
)

// parseMetrics sums a Prometheus text exposition by metric name,
// across label sets.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// counters is one before/after reading of every counter the program
// exposes: the router's and shards' /metrics, the engines' storage
// and durability stats, the monitors' stats, and the Go runtime's.
type counters struct {
	at      time.Time
	router  map[string]float64
	shards  map[string]float64 // summed over shards
	pool    storage.Stats      // both indexes, all shards
	walByte int64
	fsyncs  int64
	mon     monitor.Stats // summed over shards
	mallocs uint64
	alloced uint64
	gcCPU   float64
	allCPU  float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters(ctx context.Context, f *fleet, c *http.Client) (counters, error) {
	var k counters
	var err error
	if k.router, err = scrape(ctx, c, f.routerURL); err != nil {
		return k, err
	}
	k.shards = map[string]float64{}
	for _, node := range f.shards {
		m, err := scrape(ctx, c, node.url)
		if err != nil {
			return k, err
		}
		for name, v := range m {
			k.shards[name] += v
		}
		ss := node.eng.StorageStats()
		for _, ps := range []storage.Stats{ss.Point.Stats, ss.Uncertain.Stats} {
			k.pool.LogicalReads += ps.LogicalReads
			k.pool.PhysicalReads += ps.PhysicalReads
			k.pool.PageWrites += ps.PageWrites
			k.pool.Evictions += ps.Evictions
		}
		ds := node.eng.DurabilityStats()
		k.walByte += ds.WAL.Bytes
		k.fsyncs += ds.WAL.Fsyncs
		ms := node.srv.Monitor().Stats()
		k.mon.Batches += ms.Batches
		k.mon.UpdatesApplied += ms.UpdatesApplied
		k.mon.Reevaluated += ms.Reevaluated
		k.mon.Skipped += ms.Skipped
		k.mon.Deltas += ms.Deltas
		k.mon.Coalesced += ms.Coalesced
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	k.mallocs, k.alloced = mem.Mallocs, mem.TotalAlloc
	metrics.Read(cpuSamples)
	k.gcCPU, k.allCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	k.at = time.Now()
	return k, nil
}

// delta is after minus before, per counter; deltas of several
// windows add up.
type delta struct {
	secs           float64
	router, shards map[string]float64
	pool           storage.Stats
	walBytes       float64
	fsyncs         float64
	mon            monitor.Stats
	mallocs        float64
	alloced        float64
	gcCPU, allCPU  float64
}

func diff(a, b counters) delta {
	d := delta{
		secs:     b.at.Sub(a.at).Seconds(),
		router:   map[string]float64{},
		shards:   map[string]float64{},
		pool:     b.pool.Sub(a.pool),
		walBytes: float64(b.walByte - a.walByte),
		fsyncs:   float64(b.fsyncs - a.fsyncs),
		mallocs:  float64(b.mallocs - a.mallocs),
		alloced:  float64(b.alloced - a.alloced),
		gcCPU:    b.gcCPU - a.gcCPU,
		allCPU:   b.allCPU - a.allCPU,
		mon: monitor.Stats{
			Batches:     b.mon.Batches - a.mon.Batches,
			Reevaluated: b.mon.Reevaluated - a.mon.Reevaluated,
			Skipped:     b.mon.Skipped - a.mon.Skipped,
			Coalesced:   b.mon.Coalesced - a.mon.Coalesced,
		},
	}
	for n, v := range b.router {
		d.router[n] = v - a.router[n]
	}
	for n, v := range b.shards {
		d.shards[n] = v - a.shards[n]
	}
	return d
}

// add accumulates another window into d.
func (d *delta) add(e delta) {
	if d.router == nil {
		d.router, d.shards = map[string]float64{}, map[string]float64{}
	}
	d.secs += e.secs
	for n, v := range e.router {
		d.router[n] += v
	}
	for n, v := range e.shards {
		d.shards[n] += v
	}
	d.pool.LogicalReads += e.pool.LogicalReads
	d.pool.PhysicalReads += e.pool.PhysicalReads
	d.pool.PageWrites += e.pool.PageWrites
	d.pool.Evictions += e.pool.Evictions
	d.walBytes += e.walBytes
	d.fsyncs += e.fsyncs
	d.mon.Batches += e.mon.Batches
	d.mon.Reevaluated += e.mon.Reevaluated
	d.mon.Skipped += e.mon.Skipped
	d.mon.Coalesced += e.mon.Coalesced
	d.mallocs += e.mallocs
	d.alloced += e.alloced
	d.gcCPU += e.gcCPU
	d.allCPU += e.allCPU
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
