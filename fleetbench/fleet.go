package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/index/rtree"
	"repro/internal/monitor"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// loadChunk is the update count of one router batch while a durable
// fleet is loaded at setup.
const loadChunk = 4096

func mustTiles() *shard.TileMap {
	m, err := shard.Uniform(dataset.WorldRect(), tilesX, tilesY, numShards)
	if err != nil {
		panic(err) // constant arguments
	}
	return m
}

func rectOf(v []float64) geom.Rect {
	return geom.RectFromCorners(geom.Pt(v[0], v[1]), geom.Pt(v[2], v[3]))
}

// shardNode is one serve.Server shard on its own loopback listener.
type shardNode struct {
	eng *core.Engine
	srv *serve.Server
	url string
	// stores are the paged-range slow stores (point, uncertain), kept
	// to report index sizes.
	stores [2]*storage.LatencyStore
	pools  [2]int
}

// fleet is a router over numShards shards, each a real serve.Server
// behind net/http on 127.0.0.1, with the router behind shard.NewServer.
type fleet struct {
	tiles     *shard.TileMap
	shards    []*shardNode
	router    *shard.Router
	routerURL string
	servers   []*http.Server
	rpc       *http.Transport
	dataDir   string

	drainCancel context.CancelFunc
	drainWG     sync.WaitGroup
	drained     atomic.Int64
}

// listen serves h on a fresh loopback port.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

// bootFleet builds the fleet, loads the data and registers the
// standing queries; when it returns the first request can be served.
// rec, when non-nil, installs the tracing middleware and transport.
// dataDir roots the durable shards' WAL and checkpoints.
func bootFleet(ctx context.Context, w *workload, in *inputs, rec *recorder, dataDir string) (_ *fleet, err error) {
	f := &fleet{tiles: mustTiles(), dataDir: dataDir}
	defer func() {
		if err != nil {
			f.close()
		}
	}()

	// Bulk-loaded regimes get each shard's tile-owned subset: points
	// by location, objects replicated to every shard they overlap.
	var pts [numShards][]uncertain.PointObject
	var objs [numShards][]*uncertain.Object
	if w.regime != durableRegime {
		for _, u := range in.points {
			cu, err := u.ToUpdate()
			if err != nil {
				return nil, err
			}
			s := f.tiles.ShardOf(cu.Point.Loc)
			pts[s] = append(pts[s], cu.Point)
		}
		for _, u := range in.objects {
			cu, err := u.ToUpdate()
			if err != nil {
				return nil, err
			}
			for _, s := range f.tiles.ShardsOverlapping(cu.Object.Region()) {
				objs[s] = append(objs[s], cu.Object)
			}
		}
	}

	f.rpc = &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
	var rt http.RoundTripper = f.rpc
	if rec != nil {
		rt = &rpcTransport{rec: rec, inner: f.rpc}
	}
	clients := make([]*shard.Client, numShards)
	for s := range numShards {
		node := &shardNode{}
		var opts core.EngineOptions
		switch w.regime {
		case memRegime:
			node.eng, err = core.NewEngine(pts[s], objs[s], opts)
		case pagedRegime:
			node.pools = [2]int{max(16, len(pts[s])/pointsPerPoolPage), max(16, len(objs[s])/objectsPerPoolPage)}
			for i := range node.stores {
				node.stores[i] = storage.NewLatencyStore(storage.NewMemStore(), readLatency, 0)
			}
			opts.PointNodeStore = rtree.NewPagedNodeStore(storage.NewBufferPool(node.stores[0], node.pools[0]), 0)
			opts.UncertainNodeStore = rtree.NewPagedNodeStore(storage.NewBufferPool(node.stores[1], node.pools[1]),
				pti.AuxLen(len(uncertain.PaperCatalogProbs())))
			node.eng, err = core.NewEngine(pts[s], objs[s], opts)
		case durableRegime:
			opts.FsyncPolicy, err = core.ParseFsyncPolicy("interval")
			if err == nil {
				node.eng, err = core.Open(filepath.Join(dataDir, fmt.Sprint(s)), opts)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d engine: %w", s, err)
		}
		f.shards = append(f.shards, node)
		// Monitor and server settings are the ildq-serve defaults.
		mon := monitor.New(node.eng, monitor.Config{Workers: 2, Seed: 1, MaxPending: 64})
		node.srv = serve.NewServer(mon, core.EvalOptions{}, serve.Config{ShardID: fmt.Sprint(s), Tiles: f.tiles.Spec()})
		var h http.Handler = node.srv
		if rec != nil {
			h = rec.middleware("shard", h)
		}
		if node.url, err = f.listen(h); err != nil {
			return nil, err
		}
		clients[s] = &shard.Client{ID: fmt.Sprint(s), BaseURL: node.url, HTTP: &http.Client{Transport: rt}}
	}

	f.router, err = shard.NewRouter(f.tiles, clients, shard.Config{Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		return nil, err
	}
	var h http.Handler = shard.NewServer(f.router)
	if rec != nil {
		h = rec.middleware("router", h)
	}
	if f.routerURL, err = f.listen(h); err != nil {
		return nil, err
	}

	if w.regime == durableRegime {
		// Load through the router so it learns every object's replica
		// set; later moves then reach exactly the shards holding it.
		all := append(append([]serve.UpdateJSON{}, in.points...), in.objects...)
		for lo := 0; lo < len(all); lo += loadChunk {
			resp, err := f.router.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: all[lo:min(lo+loadChunk, len(all))]})
			if err == nil && (resp.Partial || len(resp.Errors) > 0) {
				err = fmt.Errorf("partial=%v errors=%v", resp.Partial, resp.Errors)
			}
			if err != nil {
				return nil, fmt.Errorf("loading fleet: %w", err)
			}
		}
	}
	for _, q := range in.standing {
		if _, miss, err := f.router.Register(ctx, q); err != nil || miss != nil {
			return nil, fmt.Errorf("registering standing query: %v (missing %v)", err, miss)
		}
	}
	f.startDrain()
	return f, nil
}

// startDrain consumes every standing query's deltas on every shard
// through monitor.Subscription.Next, so queues never coalesce.
func (f *fleet) startDrain() {
	ctx, cancel := context.WithCancel(context.Background())
	f.drainCancel = cancel
	for _, node := range f.shards {
		for _, sub := range node.srv.Monitor().Subscriptions() {
			f.drainWG.Add(1)
			go func() {
				defer f.drainWG.Done()
				for {
					if _, err := sub.Next(ctx); err != nil {
						return
					}
					f.drained.Add(1)
				}
			}()
		}
	}
}

// close stops the listeners and drainers, closes every engine and
// removes the durable data.
func (f *fleet) close() error {
	var errs []error
	if f.drainCancel != nil {
		f.drainCancel()
		f.drainWG.Wait()
	}
	for _, srv := range f.servers {
		errs = append(errs, srv.Close())
	}
	if f.rpc != nil {
		f.rpc.CloseIdleConnections()
	}
	for _, node := range f.shards {
		errs = append(errs, node.eng.Close())
	}
	if f.dataDir != "" {
		errs = append(errs, os.RemoveAll(f.dataDir))
	}
	return errors.Join(errs...)
}

// scrape fetches one /metrics exposition.
func scrape(ctx context.Context, c *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: HTTP %d", url, resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(text)), nil
}
