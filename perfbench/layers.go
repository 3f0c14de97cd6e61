package main

import (
	"crypto"
	"crypto/tls"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"repro/internal/credstore"
	"repro/internal/gsi"
	"repro/internal/kdf"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// phaseStat summarises one phase of a trace-1 run.
type phaseStat struct {
	ops     int
	seconds float64
	rt      runtimeCounters // deltas over the phase
}

// serverCounters are the repository-side counters, or their sum of deltas
// over the traced slices.
type serverCounters struct {
	stats                []map[string]int64
	hits, misses         int64
	poolHits, poolMisses int64
}

// add adds the deltas from before to after.
func (c *serverCounters) add(after, before serverCounters) {
	for len(c.stats) < len(after.stats) {
		c.stats = append(c.stats, map[string]int64{})
	}
	for i, st := range after.stats {
		for k, v := range st {
			c.stats[i][k] += v - before.stats[i][k]
		}
	}
	c.hits += after.hits - before.hits
	c.misses += after.misses - before.misses
	c.poolHits += after.poolHits - before.poolHits
	c.poolMisses += after.poolMisses - before.poolMisses
}

func readServers(r *rig) serverCounters {
	var c serverCounters
	for _, s := range r.servers {
		c.stats = append(c.stats, s.Stats().Snapshot())
		c.hits += s.VerifyCache().Hits()
		c.misses += s.VerifyCache().Misses()
	}
	for _, p := range r.pools() {
		st := p.Snapshot()
		c.poolHits += st.Hits
		c.poolMisses += st.Misses
	}
	return c
}

// measureTraced cuts the window into one-second slices and alternates
// tracing off and on between them, starting off. Untraced slices give the
// baseline for the tracing overhead and the runtime metrics; traced slices
// give the spans and the repository counter deltas. Alternating makes a
// host's drift over the window fall on both sides alike.
func measureTraced(r *rig, window time.Duration) measurement {
	k := max(2, int(window/slice))
	step := window / time.Duration(k)
	var m measurement
	start := time.Now()
	r.windowStart.Store(int64(start.Sub(r.tr.epoch)))
	r.phase.Store(phaseWindow)
	t0, rt0, srv0 := start, readRuntime(), readServers(r)
	for i := 0; i < k; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * step)))
		traced := i%2 == 1
		if i == k-1 {
			r.stop()
		} else if traced {
			r.phase.Store(phaseWindow)
			r.tr.on.Store(false)
		} else {
			r.tr.on.Store(true)
			r.phase.Store(phaseTraced)
		}
		t1, rt1, srv1 := time.Now(), readRuntime(), readServers(r)
		if traced {
			m.traced.seconds += t1.Sub(t0).Seconds()
			m.srv.add(srv1, srv0)
		} else {
			m.plain.seconds += t1.Sub(t0).Seconds()
			m.plain.rt = m.plain.rt.add(rt1.sub(rt0))
		}
		t0, rt0, srv0 = t1, rt1, srv1
	}
	r.tr.on.Store(false)
	for _, s := range collect(r) {
		m.attempted++
		if !s.ok {
			m.failed++
		}
		if s.phase == phaseWindow {
			m.plain.ops++
		} else {
			m.traced.ops++
		}
	}
	m.okSamples = m.attempted - m.failed
	return m
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs + b.allocs, a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU}
}

// layerMetrics derives every per-layer metric: seam spans and counters
// from the traced slices, runtime metrics from the untraced slices, and
// direct calls into the layers that have no seam, timed after the window
// on inputs the workload produced.
func layerMetrics(r *rig, m measurement) (map[string]metric, error) {
	spans := r.tr.snapshot()
	ops := float64(max(m.traced.ops, 1))
	plainOps := float64(max(m.plain.ops, 1))
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	self := selfTimes(spans)
	var opSelf []float64
	fanout := 0.0
	dialAddrs := map[uint64]map[string]bool{}
	for _, s := range byName["gsi.dial"] {
		if s.Parent != 0 {
			if dialAddrs[s.Parent] == nil {
				dialAddrs[s.Parent] = map[string]bool{}
			}
			dialAddrs[s.Parent][s.Peer] = true
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && len(s.Name) > 3 && s.Name[:3] == "op." {
			opSelf = append(opSelf, float64(self[s.ID])/1e6)
			fanout += float64(len(dialAddrs[s.ID]))
		}
	}
	mean := func(name string, unit time.Duration) float64 {
		var total time.Duration
		n := 0
		for _, s := range byName[name] {
			total += s.dur()
			n += max(s.Calls, 1)
		}
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n) / float64(unit)
	}
	count := func(name string) float64 { return float64(len(byName[name])) }
	delta := func(key string) (total int64, perNode []int64) {
		for _, st := range m.srv.stats {
			total += st[key]
			perNode = append(perNode, st[key])
		}
		return total, perNode
	}
	streams, _ := delta("streams")
	conns, _ := delta("connections")
	serverErrs, _ := delta("errors")
	var nodeOps []int64
	for _, k := range []string{"gets", "puts", "infos", "destroys", "auth_failures", "errors"} {
		_, per := delta(k)
		for i, v := range per {
			if len(nodeOps) <= i {
				nodeOps = append(nodeOps, 0)
			}
			nodeOps[i] += v
		}
	}
	lo, hi := nodeOps[0], nodeOps[0]
	for _, v := range nodeOps {
		lo, hi = min(lo, v), max(hi, v)
	}
	ratio := func(h, miss int64) float64 {
		if h+miss == 0 {
			return 0
		}
		return float64(h) / float64(h+miss)
	}
	out := map[string]metric{
		"gsi.dials_per_op":              {float64(r.tr.dials.Load()) / ops, "count"},
		"gsi.bytes_per_op":              {float64(r.tr.bytes.Load()) / ops, "B"},
		"gsi.io_calls_per_op":           {float64(r.tr.ioCalls.Load()) / ops, "count"},
		"proxy.server_verify_hit_ratio": {ratio(m.srv.hits, m.srv.misses), "ratio"},
		"keypool.client_wait_us":        {mean("keypool.client", time.Microsecond), "us"},
		"keypool.server_wait_us":        {mean("keypool.server", time.Microsecond), "us"},
		"keypool.hit_ratio":             {ratio(m.srv.poolHits, m.srv.poolMisses), "ratio"},
		"credstore.get_us":              {mean("credstore.get", time.Microsecond), "us"},
		"credstore.gets_per_op":         {count("credstore.get") / ops, "count"},
		"credstore.put_ms":              {mean("credstore.put", time.Millisecond), "ms"},
		"credstore.puts_per_op":         {count("credstore.put") / ops, "count"},
		"core.op_self_ms":               {avg(opSelf), "ms"},
		"core.streams_per_op":           {float64(streams) / ops, "count"},
		"core.connections_per_op":       {float64(conns) / ops, "count"},
		"core.server_errors":            {float64(serverErrs), "count"},
		"cluster.replica_dials_per_op":  {fanout / ops, "count"},
		"cluster.node_op_skew":          {float64(hi) / float64(max(lo, 1)), "ratio"},
		"runtime.allocs_per_op":         {m.plain.rt.allocs / plainOps, "count"},
		"runtime.alloc_bytes_per_op":    {m.plain.rt.allocBytes / plainOps, "B"},
		"runtime.gc_cpu_fraction":       {m.plain.rt.gcCPU / (m.plain.seconds * float64(runtime.GOMAXPROCS(0))), "ratio"},
		"trace.overhead_pct":            {overheadPct(m), "%"},
		"trace.spans_per_op":            {float64(len(spans)) / ops, "count"},
	}
	direct, err := directLayers(r)
	if err != nil {
		return nil, err
	}
	for k, v := range direct {
		out[k] = v
	}
	for k, v := range out {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", k)
		}
	}
	return out, nil
}

// overheadPct is how much slower operations ran with tracing on.
func overheadPct(m measurement) float64 {
	plain := float64(m.plain.ops) / m.plain.seconds
	traced := float64(m.traced.ops) / m.traced.seconds
	if traced == 0 {
		return 0
	}
	return (plain/traced - 1) * 100
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// direct-call budgets: each layer is called for at least minBatches batches
// and until budget has passed.
const (
	minBatches = 3
	budget     = 150 * time.Millisecond
)

// timeCalls times fn in batches of batch calls as root spans named name
// and returns the mean time per call in unit.
func (t *tracer) timeCalls(name string, batch int, unit time.Duration, fn func(i int) error) (float64, error) {
	var total time.Duration
	calls := 0
	start := time.Now()
	for b := 0; b < minBatches || time.Since(start) < budget; b++ {
		s := span{Name: name, ID: t.newID(), Start: t.now(), Calls: batch}
		for i := 0; i < batch; i++ {
			if err := fn(b*batch + i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		s.End = t.now()
		t.record(s)
		total += s.dur()
		calls += batch
	}
	return float64(total) / float64(calls) / float64(unit), nil
}

// directLayers calls into the layers that have no seam the benchmark can
// wrap, on the inputs the traced phase produced: the chains clients got
// back and the sealed entries the store served.
func directLayers(r *rig) (map[string]metric, error) {
	var creds []*pki.Credential
	for _, w := range r.workers {
		creds = append(creds, w.keep...)
	}
	entries := r.tr.capturedEntries()
	if len(creds) == 0 || len(entries) == 0 {
		return nil, errors.New("traced phase captured no delegations or store entries")
	}
	pass := map[string][]byte{}
	for i, n := range r.names {
		pass[n] = []byte(r.pass[i])
	}
	issuers := make([]*pki.Credential, len(entries))
	for i, e := range entries {
		var err error
		if issuers[i], err = credstore.UnsealDelegated(e, pass[e.Username]); err != nil {
			return nil, err
		}
	}
	var pubs []crypto.PublicKey
	for i := 0; i < 4; i++ {
		k, err := pki.GenerateSigner(delegation)
		if err != nil {
			return nil, err
		}
		pubs = append(pubs, k.Public())
	}
	reqs, resps := exchangeMessages(r, entries[0])
	var wireReqs, wireResps [][]byte
	for _, q := range reqs {
		b, err := protocol.MarshalRequest(q)
		if err != nil {
			return nil, err
		}
		wireReqs = append(wireReqs, b)
	}
	for _, p := range resps {
		wireResps = append(wireResps, protocol.MarshalResponse(p))
	}
	cache := proxy.NewVerifyCache(0)
	vopts := proxy.VerifyOptions{Roots: r.roots}
	for _, c := range creds {
		if _, err := cache.Verify(c.CertChain(), vopts); err != nil {
			return nil, err
		}
	}
	dns := make([]pki.DN, len(creds))
	for i, c := range creds {
		var err error
		if dns[i], err = pki.ParseRawDN(c.Certificate.RawSubject); err != nil {
			return nil, err
		}
	}
	salt := []byte("perfbench kdf salt")
	tr := r.tr
	out := map[string]metric{}
	type layer struct {
		name  string
		batch int
		unit  time.Duration
		fn    func(i int) error
	}
	layers := []layer{
		{"protocol.parse_us", 64, time.Microsecond, func(i int) error {
			if i%2 == 0 {
				_, err := protocol.ParseRequest(wireReqs[i/2%len(wireReqs)])
				return err
			}
			_, err := protocol.ParseResponse(wireResps[i/2%len(wireResps)])
			return err
		}},
		{"protocol.marshal_us", 64, time.Microsecond, func(i int) error {
			if i%2 == 0 {
				_, err := protocol.MarshalRequest(reqs[i/2%len(reqs)])
				return err
			}
			protocol.MarshalResponse(resps[i/2%len(resps)])
			return nil
		}},
		{"proxy.verify_us", 4, time.Microsecond, func(i int) error {
			_, err := proxy.Verify(creds[i%len(creds)].CertChain(), vopts)
			return err
		}},
		{"proxy.verify_cached_us", 64, time.Microsecond, func(i int) error {
			_, err := cache.Verify(creds[i%len(creds)].CertChain(), vopts)
			return err
		}},
		{"proxy.create_us", 4, time.Microsecond, func(i int) error {
			_, err := proxy.Create(issuers[i%len(issuers)], pubs[i%len(pubs)], proxy.Options{Lifetime: getLifetime})
			return err
		}},
		{"pki.parse_raw_dn_us", 64, time.Microsecond, func(i int) error {
			_, err := pki.ParseRawDN(creds[i%len(creds)].Certificate.RawSubject)
			return err
		}},
		{"pki.dn_marshal_us", 64, time.Microsecond, func(i int) error {
			_, err := dns[i%len(dns)].Marshal()
			return err
		}},
		{"pki.keygen_us", 16, time.Microsecond, func(int) error {
			_, err := pki.GenerateSigner(delegation)
			return err
		}},
		{"credstore.unseal_ms", 1, time.Millisecond, func(i int) error {
			e := entries[i%len(entries)]
			_, err := credstore.UnsealDelegated(e, pass[e.Username])
			return err
		}},
		{"credstore.seal_ms", 1, time.Millisecond, func(i int) error {
			c := issuers[i%len(issuers)]
			e := &credstore.Entry{Username: entries[i%len(entries)].Username}
			return credstore.SealDelegated(e, c, pass[e.Username], r.spec.kdfIter)
		}},
		{"kdf.sha256_ms", 1, time.Millisecond, func(int) error {
			pki.WipeBytes(kdf.SHA256Key(pass[entries[0].Username], salt, r.spec.kdfIter, 32))
			return nil
		}},
	}
	for _, l := range layers {
		v, err := tr.timeCalls(l.name, l.batch, l.unit, l.fn)
		if err != nil {
			return nil, err
		}
		unit := map[time.Duration]string{time.Microsecond: "us", time.Millisecond: "ms"}[l.unit]
		out[l.name] = metric{v, unit}
	}
	hs, err := handshakes(r)
	if err != nil {
		return nil, err
	}
	out["gsi.handshake_ms"] = metric{hs, "ms"}
	return out, nil
}

// exchangeMessages builds the requests and responses the workload puts on
// the wire, for the protocol layer's direct calls.
func exchangeMessages(r *rig, e *credstore.Entry) ([]*protocol.Request, []*protocol.Response) {
	name, pass := r.names[0], r.pass[0]
	reqs := []*protocol.Request{{Command: protocol.CmdGet, Username: name, Passphrase: pass, Lifetime: getLifetime}}
	resps := []*protocol.Response{protocol.OKResponse()}
	if r.spec.churn {
		reqs = append(reqs,
			&protocol.Request{Command: protocol.CmdPut, Username: name, Passphrase: pass, Lifetime: 7 * 24 * time.Hour, KeyAlg: delegation.Algorithm.String()},
			&protocol.Request{Command: protocol.CmdInfo, Username: name, Passphrase: pass},
			&protocol.Request{Command: protocol.CmdDestroy, Username: name, Passphrase: pass})
		resps = append(resps, &protocol.Response{Code: protocol.RespOK, Infos: []protocol.CredInfo{{
			Name: e.Name, Owner: e.Owner, StartTime: e.NotBefore.UTC(), EndTime: e.NotAfter.UTC(),
		}}})
	}
	return reqs, resps
}

// handshakes times gsi.Client against gsi.Server over loopback with the
// workload's credentials (the portal against the first repository), with
// shared TLS configurations and verify caches as core.Client and
// core.Server use them, so later handshakes resume.
func handshakes(r *rig) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	clientTLS, err := gsi.NewClientTLSConfig(r.portal, tls.NewLRUClientSessionCache(0))
	if err != nil {
		return 0, err
	}
	serverTLS, err := gsi.NewServerTLSConfig(r.hosts[0])
	if err != nil {
		return 0, err
	}
	copts := gsi.AuthOptions{Roots: r.roots, ExpectedPeer: repoPeer, TLSConfig: clientTLS, Cache: proxy.NewVerifyCache(0)}
	sopts := gsi.AuthOptions{Roots: r.roots, TLSConfig: serverTLS, Cache: proxy.NewVerifyCache(0)}
	one := func(int) error {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		defer raw.Close()
		srvRaw, err := ln.Accept()
		if err != nil {
			return err
		}
		defer srvRaw.Close()
		errc := make(chan error, 1)
		go func() {
			sc, err := gsi.Server(srvRaw, r.hosts[0], sopts)
			if err == nil {
				// One message after the handshake carries the TLS 1.3
				// session ticket to the client, as a reply does in the
				// workload.
				err = sc.WriteMessage([]byte("ok"))
			}
			errc <- err
		}()
		cc, err := gsi.Client(raw, r.portal, copts)
		if err == nil {
			_, err = cc.ReadMessage()
		}
		return errors.Join(err, <-errc)
	}
	return r.tr.timeCalls("gsi.handshake", 1, time.Millisecond, one)
}
