package main

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/keypool"
	"repro/internal/pki"
	"repro/internal/policy"
)

var (
	benchBase  = pki.MustParseDN("/C=US/O=Bench Grid")
	benchACL   = "/C=US/O=Bench Grid/*"
	repoPeer   = "/C=US/O=Bench Grid/CN=myproxy*"
	delegation = pki.KeySpec{Algorithm: pki.AlgEd25519}
)

const (
	phaseWarm int32 = iota
	phaseWindow
	phaseTraced
	phaseStop
)

// rig is one deployment: repositories serving on loopback in this process
// and the closed-loop clients that drive them.
type rig struct {
	spec  workloadSpec
	dir   string
	tr    *tracer
	roots *x509.CertPool

	users  []*pki.Credential
	names  []string
	pass   []string
	portal *pki.Credential
	hosts  []*pki.Credential

	servers     []*core.Server
	addrs       []string
	serverPools []*keypool.Pool
	clientPool  *keypool.Pool
	serving     sync.WaitGroup

	workers []*worker
	phase   atomic.Int32
	running sync.WaitGroup
	// windowStart is when the first measured phase opened (ns since the
	// tracer's epoch).
	windowStart atomic.Int64
}

// pools lists every key pool the deployment runs: the portal's first.
func (r *rig) pools() []*keypool.Pool {
	return append([]*keypool.Pool{r.clientPool}, r.serverPools...)
}

// newRig builds the deployment for spec and drives it until it reaches
// steady state; the caller times this as set-up. Inputs (user names, pass
// phrases, each client's operation sequence) come from seed; key material
// comes from crypto/rand.
func newRig(spec workloadSpec, seed uint64, dir string, tr *tracer, clients int) (r *rig, err error) {
	r = &rig{spec: spec, dir: dir, tr: tr}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return r, err
	}
	ca, err := pki.NewCA(pki.CAConfig{Name: benchBase.WithCN("Bench CA"), Algorithm: pki.AlgEd25519})
	if err != nil {
		return r, err
	}
	r.roots = x509.NewCertPool()
	r.roots.AddCert(ca.Certificate())
	const year = 365 * 24 * time.Hour
	if r.portal, err = ca.IssueHostCredential(benchBase, "portal.bench", year, 0); err != nil {
		return r, err
	}
	inputs := rand.New(rand.NewPCG(seed, 0)) //myproxy:allow weakrand benchmark inputs must replay from the seed
	for i := 0; i < spec.userCount(clients); i++ {
		name := fmt.Sprintf("user%03d", i)
		cred, err := ca.IssueCredential(benchBase.WithCN(name), year, 0)
		if err != nil {
			return r, err
		}
		r.users = append(r.users, cred)
		r.names = append(r.names, name)
		r.pass = append(r.pass, passphrase(inputs))
	}
	for i := 0; i < spec.repos; i++ {
		host, err := ca.IssueHostCredential(benchBase, fmt.Sprintf("myproxy%02d.bench", i), year, 0)
		if err != nil {
			return r, err
		}
		r.hosts = append(r.hosts, host)
		if err := r.startServer(i); err != nil {
			return r, err
		}
	}
	r.clientPool = keypool.New(keypool.DefaultSize, 0, delegation)
	for i := 0; i < clients; i++ {
		w := &worker{id: i, rng: rand.New(rand.NewPCG(seed, uint64(i)+1))} //myproxy:allow weakrand operation sequences must replay from the seed
		for u := i; u < len(r.users); u += clients {
			w.users = append(w.users, u)
			tr.owner[r.names[u]] = w
		}
		if spec.churn {
			w.startStages()
		}
		r.workers = append(r.workers, w)
		if err := r.connect(w); err != nil {
			return r, err
		}
	}
	if err := r.deposit(); err != nil {
		return r, err
	}
	for _, w := range r.workers {
		if spec.session {
			if w.session, err = w.getter.(*core.Client).NewSession(context.Background()); err != nil {
				return r, fmt.Errorf("open session: %w", err)
			}
			if !w.session.Multiplexed() {
				return r, errors.New("repository declined the multiplexed session")
			}
		}
		r.running.Add(1)
		go r.loop(w)
	}
	return r, r.warm()
}

func passphrase(rng *rand.Rand) string { //myproxy:allow weakrand seeded test pass phrases, not secrets
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, 20)
	for i := range b {
		b[i] = letters[rng.IntN(len(letters))]
	}
	return string(b)
}

// startServer runs repository i the way myproxy-server does by default:
// a file store that fsyncs every write, the default key pool for
// server-generated deposit keys, the default lifetime and pass-phrase
// policies, and a stats file in the store directory. The audit logger
// discards its lines so the run does not measure terminal output.
func (r *rig) startServer(i int) error {
	storeDir := filepath.Join(r.dir, fmt.Sprintf("repo%d", i))
	fs, err := credstore.NewFileStore(storeDir)
	if err != nil {
		return err
	}
	pool := keypool.New(keypool.DefaultSize, 0, delegation)
	r.serverPools = append(r.serverPools, pool)
	srv, err := core.NewServer(core.ServerConfig{
		Credential:             r.hosts[i],
		Roots:                  r.roots,
		Store:                  &tracedStore{b: fs, tr: r.tr},
		AcceptedCredentials:    policy.NewACL(benchACL),
		AuthorizedRetrievers:   policy.NewACL(benchACL),
		Passphrase:             policy.PassphrasePolicy{MinLength: policy.DefaultMinPassphraseLength},
		Lifetimes:              policy.LifetimePolicy{MaxStored: 168 * time.Hour, MaxDelegated: 12 * time.Hour},
		KDFIterations:          r.spec.kdfIter,
		DrainTimeout:           5 * time.Second,
		StatsFile:              filepath.Join(storeDir, "server.stats"),
		DelegationKeyAlgorithm: delegation.Algorithm,
		KeySource:              &tracedKeys{src: pool, tr: r.tr, name: "keypool.server"},
		Logger:                 log.New(io.Discard, "", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.servers = append(r.servers, srv)
	r.addrs = append(r.addrs, ln.Addr().String())
	r.serving.Add(1)
	go func() {
		defer r.serving.Done()
		_ = srv.Serve(ln) // returns net.ErrClosed after Close
	}()
	return nil
}

// connect builds w's clients: the portal's GET client and each owned
// user's own client.
func (r *rig) connect(w *worker) error {
	keys := &tracedKeys{src: r.clientPool, tr: r.tr, name: "keypool.client", w: w}
	dial := r.tr.dialer(w)
	newRepo := func(cred *pki.Credential, ks *tracedKeys) (core.Repository, error) {
		if r.spec.repos == 1 {
			c := &core.Client{
				Credential: cred, Roots: r.roots, Addr: r.addrs[0], ExpectedServer: repoPeer,
				KeyAlgorithm: delegation.Algorithm, DialContext: dial,
			}
			if ks != nil {
				c.KeySource = ks
			}
			return c, nil
		}
		cfg := cluster.Config{
			ReplicationFactor: r.spec.rf, Credential: cred, Roots: r.roots, ExpectedServer: repoPeer,
			KeyAlgorithm: delegation.Algorithm, DialContext: dial,
		}
		if ks != nil {
			cfg.KeySource = ks
		}
		// Stable node IDs keep replica placement, and so per-node load,
		// the same from run to run; the default ID is the address, whose
		// port changes every run.
		for i, a := range r.addrs {
			cfg.Nodes = append(cfg.Nodes, cluster.NodeConfig{ID: cluster.NodeID(fmt.Sprintf("repo%d", i)), Addr: a})
		}
		return cluster.New(cfg)
	}
	var err error
	if w.getter, err = newRepo(r.portal, keys); err != nil {
		return err
	}
	for _, u := range w.users {
		c, err := newRepo(r.users[u], nil)
		if err != nil {
			return err
		}
		w.owners = append(w.owners, c)
	}
	return nil
}

// deposit has every user put a credential, each client its own users in
// parallel (paper Fig. 1).
func (r *rig) deposit() error {
	errs := make([]error, len(r.workers))
	var wg sync.WaitGroup
	for i, w := range r.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for j, u := range w.users {
				err := w.owners[j].Put(context.Background(), core.PutOptions{Username: r.names[u], Passphrase: r.pass[u]})
				if err != nil {
					errs[i] = fmt.Errorf("deposit %s: %w", r.names[u], err)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// warm waits for steady state: every client has completed its warm-up
// operations (caches filled, first unseal done) and every key pool the
// workload draws from has generated more keys than it holds, so the window
// does not live off a pre-filled pool.
func (r *rig) warm() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ready := true
		for _, w := range r.workers {
			if w.done.Load() < r.spec.warmOps {
				ready = false
			}
			if w.outFails.Load() > 0 {
				r.stop() // w.fails is the loop's until it returns
				return fmt.Errorf("warm-up: %s", w.fails[0])
			}
		}
		pools := []*keypool.Pool{r.clientPool}
		if r.spec.churn {
			pools = r.pools()
		}
		for _, p := range pools {
			if p.Snapshot().Generated <= int64(keypool.DefaultSize) {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("warm-up did not reach steady state within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// loop is one client's closed loop. Operations started in a measured phase
// become samples; the output checks run outside the latency timer.
func (r *rig) loop(w *worker) {
	defer r.running.Done()
	ctx := context.Background()
	for {
		ph := r.phase.Load()
		if ph == phaseStop {
			return
		}
		o := w.next(r.spec)
		verify := o.kind == opGet && w.rng.IntN(verifyOneIn) == 0
		var id uint64
		traced := ph == phaseTraced
		if traced {
			id = r.tr.newID()
			w.curOp.Store(id)
		}
		t0 := time.Now()
		res := w.exec(ctx, r, o)
		t1 := time.Now()
		if traced {
			w.curOp.Store(0)
			r.tr.record(span{Name: "op." + o.kind.String(), ID: id, Req: id,
				Start: int64(t0.Sub(r.tr.epoch)), End: int64(t1.Sub(r.tr.epoch))})
		}
		err := w.check(r, o, res, t1, verify)
		if err == nil && ph == phaseTraced && res.cred != nil && len(w.keep) < 4 {
			w.keep = append(w.keep, res.cred)
		}
		if ph == phaseWindow || ph == phaseTraced {
			w.samples = append(w.samples, sample{
				start: int64(t0.Sub(r.tr.epoch)) - r.windowStart.Load(),
				lat:   int64(t1.Sub(t0)), ok: err == nil, phase: ph,
			})
		} else if err != nil {
			w.outFails.Add(1)
		}
		if err != nil && len(w.fails) < 5 {
			w.fails = append(w.fails, err.Error())
		}
		w.done.Add(1)
	}
}

// stop ends the closed loops and waits for them.
func (r *rig) stop() {
	r.phase.Store(phaseStop)
	r.running.Wait()
}

// close stops the clients and drains the repositories. It returns an error
// when a repository had to force-close a session.
func (r *rig) close() error {
	r.stop()
	var errs []error
	for _, w := range r.workers {
		if w.session != nil {
			if err := w.session.Close(); err != nil {
				errs = append(errs, fmt.Errorf("close session: %w", err))
			}
		}
	}
	for i, s := range r.servers {
		_ = s.Close() // always nil; a forced close shows in the stats
		if n := s.Stats().ForcedCloses.Load(); n != 0 {
			errs = append(errs, fmt.Errorf("repository %d force-closed %d session(s) while draining", i, n))
		}
	}
	r.serving.Wait()
	for _, p := range r.pools() {
		p.Close()
	}
	if err := os.RemoveAll(r.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// settle waits for the goroutine count to return to baseline.
func settle(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after teardown, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
