package main

import (
	"bytes"
	"context"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/pki"
	"repro/internal/protocol"
	"repro/internal/proxy"
)

// workloadSpec fixes what one workload deploys and drives. Why each exists
// is in README.md; the short form is in BENCHMARK.json.
type workloadSpec struct {
	name string
	// repos is the number of repositories; above one, clients go through
	// cluster.Client with replication factor rf.
	repos, rf int
	// users is the number of seeded users, dealt round-robin to the
	// closed-loop clients so that each owns a disjoint set; 0 gives every
	// client one user of its own.
	users int
	// kdfIter is the server's sealing KDF iteration count.
	kdfIter int
	// session selects one multiplexed session per client.
	session bool
	// churn selects the lifecycle mix instead of GETs only.
	churn bool
	// warmOps is how many operations each client completes before the
	// timed window may open.
	warmOps int64
}

var workloads = map[string]workloadSpec{
	"session-get":   {name: "session-get", repos: 1, kdfIter: pki.DefaultKDFIterations, session: true, warmOps: 200},
	"connect-get":   {name: "connect-get", repos: 1, users: 64, kdfIter: pki.DefaultKDFIterations, warmOps: 40},
	"cluster-churn": {name: "cluster-churn", repos: 3, rf: 2, users: 16, kdfIter: 1024, churn: true, warmOps: 100},
}

// clients is the number of closed-loop clients on a host with nproc cores:
// one per core, but no more than there are users to own.
func (s workloadSpec) clients(nproc int) int {
	if s.users == 0 {
		return nproc
	}
	return min(nproc, s.users)
}

// userCount is the number of users deployed for the given client count.
func (s workloadSpec) userCount(clients int) int {
	if s.users == 0 {
		return clients
	}
	return s.users
}

// getLifetime is the proxy lifetime every GET requests.
const getLifetime = time.Hour

// verifyOneIn is the share of GETs whose returned chain also gets a full
// proxy.Verify outside the latency timer (chosen by the seeded generator).
const verifyOneIn = 32

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opInfo
	opDestroy
	// opGetAbsent is the GET that follows a DESTROY and must fail as not
	// found.
	opGetAbsent
)

var opNames = [...]string{"get", "put", "info", "destroy", "get_absent"}

func (k opKind) String() string { return opNames[k] }

// lifecycle is the cycle each cluster-churn user goes through, after
// MyProxy's own use: a deposit (myproxy-init), a check that it is listed
// (myproxy-info), portal logins (GETs), removal (myproxy-destroy) and a
// login that must find nothing. The cycle fixes one PUT, INFO, DESTROY and
// GET-after-DESTROY each; the number of logins is set so that writes (PUT
// and DESTROY) are 25% of operations, the read/write split of the sizing
// prototype's 75/25 GET/PUT cluster mix. The paper's own model, one deposit
// per stored lifetime against one GET per login, has far fewer writes; this
// workload is write-heavy on purpose, so that a write or replication
// regression shows.
var lifecycle = [...]opKind{opPut, opInfo, opGet, opGet, opGet, opGet, opDestroy, opGetAbsent}

type op struct {
	kind opKind
	user int // index into the worker's users
}

// sample is one operation started inside a measured phase.
type sample struct {
	start int64 // ns since the window opened
	lat   int64 // ns
	ok    bool
	phase int32
}

// worker is one closed-loop client: it sends its next request only after
// the previous reply, so a slower system receives less load.
type worker struct {
	id    int
	rng   *rand.Rand //myproxy:allow weakrand seeded operation generator
	users []int      // indices into rig.users

	// getter issues GETs: the portal's client (a *core.Client or a
	// *cluster.Client), or the session below.
	getter  core.Repository
	session *core.Session
	// owners[i] is users[i]'s own client, used for PUT, INFO and DESTROY.
	owners []core.Repository
	// stage[i] is users[i]'s position in lifecycle (cluster-churn only).
	stage []int

	// curOp is the traced operation in flight (0 when none).
	curOp atomic.Uint64
	done  atomic.Int64

	samples  []sample
	fails    []string
	keep     []*pki.Credential
	outFails atomic.Int64 // failures outside the measured phases
}

// startStages places each user at a seeded point of its lifecycle, so the
// mix is steady from the first operation. Every user starts deposited, so
// no user starts at the GET after DESTROY.
func (w *worker) startStages() {
	w.stage = make([]int, len(w.users))
	for i := range w.stage {
		w.stage[i] = w.rng.IntN(len(lifecycle) - 1)
	}
}

// next draws the client's next operation from its seeded generator: a
// GET of a random owned user, or on cluster-churn the next lifecycle step
// of a random owned user.
func (w *worker) next(spec workloadSpec) op {
	u := w.rng.IntN(len(w.users))
	if !spec.churn {
		return op{kind: opGet, user: u}
	}
	k := lifecycle[w.stage[u]]
	w.stage[u] = (w.stage[u] + 1) % len(lifecycle)
	return op{kind: k, user: u}
}

// result is what one operation returned, kept for the output checks.
type result struct {
	cred  *pki.Credential
	infos []protocol.CredInfo
	err   error
}

func (w *worker) exec(ctx context.Context, r *rig, o op) result {
	u := w.users[o.user]
	name, pass := r.names[u], r.pass[u]
	switch o.kind {
	case opGet, opGetAbsent:
		opts := core.GetOptions{Username: name, Passphrase: pass, Lifetime: getLifetime}
		var cred *pki.Credential
		var err error
		if w.session != nil {
			cred, err = w.session.Get(ctx, opts)
		} else {
			cred, err = w.getter.Get(ctx, opts)
		}
		return result{cred: cred, err: err}
	case opPut:
		return result{err: w.owners[o.user].Put(ctx, core.PutOptions{Username: name, Passphrase: pass})}
	case opInfo:
		infos, err := w.owners[o.user].Info(ctx, name, pass)
		return result{infos: infos, err: err}
	case opDestroy:
		return result{err: w.owners[o.user].Destroy(ctx, name, pass, "")}
	}
	return result{err: fmt.Errorf("unknown operation %d", o.kind)}
}

// check validates one operation's output. sampleVerify asks for a full
// chain verification on top of the cheap checks.
func (w *worker) check(r *rig, o op, res result, end time.Time, sampleVerify bool) error {
	u := w.users[o.user]
	user := r.users[u]
	var err error
	switch o.kind {
	case opGet:
		err = res.err
		if err == nil {
			err = checkCred(res.cred, user, end)
		}
		if err == nil && sampleVerify {
			err = verifyChain(r, res.cred, user)
		}
	case opGetAbsent:
		switch {
		case res.err == nil:
			err = errors.New("GET after DESTROY returned a credential")
		case !protocol.IsServerVerdict(res.err) || !strings.Contains(res.err.Error(), "no credentials found"):
			err = fmt.Errorf("GET after DESTROY: want not found, got %w", res.err)
		}
	case opPut, opDestroy:
		err = res.err
	case opInfo:
		err = res.err
		if err == nil {
			err = checkInfo(res.infos, user)
		}
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", o.kind, r.names[u], err)
	}
	return nil
}

// checkCred checks a returned delegation: the leaf is a proxy of the
// user's DN whose chain ends at the user's certificate, it certifies the
// key the client holds, and it expires no later than requested.
func checkCred(cred *pki.Credential, user *pki.Credential, end time.Time) error {
	if cred == nil || cred.Certificate == nil || cred.PrivateKey == nil {
		return errors.New("incomplete credential")
	}
	leaf := cred.Certificate
	if !proxy.IsProxy(leaf) {
		return errors.New("leaf is not a proxy certificate")
	}
	if len(cred.Chain) == 0 || !bytes.Equal(cred.Chain[len(cred.Chain)-1].Raw, user.Certificate.Raw) {
		return errors.New("chain does not end at the user's certificate")
	}
	if !namePrefix(leaf.Subject.Names, user.Certificate.Subject.Names) {
		return errors.New("leaf subject does not extend the user's DN")
	}
	if !pki.PublicKeysEqual(leaf.PublicKey, cred.PrivateKey.Public()) {
		return errors.New("leaf key does not match the client's key")
	}
	if leaf.NotAfter.After(end.Add(getLifetime)) {
		return fmt.Errorf("leaf expires %v, after the requested lifetime", leaf.NotAfter)
	}
	return nil
}

func namePrefix(leaf, user []pkix.AttributeTypeAndValue) bool {
	if len(leaf) <= len(user) {
		return false
	}
	for i, a := range user {
		if !a.Type.Equal(leaf[i].Type) || a.Value != leaf[i].Value {
			return false
		}
	}
	return true
}

// verifyChain runs the full proxy.Verify on a returned chain.
func verifyChain(r *rig, cred *pki.Credential, user *pki.Credential) error {
	res, err := proxy.Verify(cred.CertChain(), proxy.VerifyOptions{Roots: r.roots})
	if err != nil {
		return fmt.Errorf("returned chain does not verify: %w", err)
	}
	if res.IdentityString() != user.Subject() || res.Depth != 2 {
		return fmt.Errorf("returned chain verifies as %s at depth %d", res.IdentityString(), res.Depth)
	}
	return nil
}

func checkInfo(infos []protocol.CredInfo, user *pki.Credential) error {
	for _, in := range infos {
		if in.Name == "" && in.Owner == user.Subject() {
			return nil
		}
	}
	return fmt.Errorf("INFO lists %d credential(s), none the user's default", len(infos))
}
