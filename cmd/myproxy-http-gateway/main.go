// Command myproxy-http-gateway serves the repository over HTTPS+JSON — the
// paper's §6.4 "more standard protocols" direction. It can share a store
// directory with myproxy-server so both protocol frontends expose the same
// credentials.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/credstore"
	"repro/internal/httpgate"
	"repro/internal/keypool"
	"repro/internal/pki"
	"repro/internal/policy"
)

func main() {
	listen := flag.String("listen", ":7513", "HTTPS listen address")
	credFile := flag.String("cred", "myproxy-host.pem", "gateway host credential")
	caFile := flag.String("ca", "grid-ca/ca-cert.pem", "trusted CA certificate bundle")
	storeDir := flag.String("store", "myproxy-store", "credential store directory (shareable with myproxy-server)")
	acceptedFile := flag.String("accepted", "", "accepted_credentials ACL file; required")
	retrieversFile := flag.String("retrievers", "", "authorized_retrievers ACL file; required")
	maxDelegHours := flag.Int("max-proxy-hours", 12, "maximum delegated proxy lifetime")
	kdfIter := flag.Int("kdf-iter", pki.DefaultKDFIterations, "PBKDF2 iterations for sealing")
	keypoolSize := flag.Int("keypool", keypool.DefaultSize, "background keypair pool size (0 disables)")
	keyAlg := flag.String("key-alg", "rsa-2048", "key algorithm for server-generated keys (rsa-2048, ecdsa-p256, ed25519)")
	flag.Parse()

	if *kdfIter > pki.MaxKDFIterations {
		cliutil.Fatalf("myproxy-http-gateway: -kdf-iter %d exceeds the maximum of %d; keys sealed with it could not be opened", *kdfIter, pki.MaxKDFIterations)
	}
	alg, err := pki.ParseKeyAlgorithm(*keyAlg)
	if err != nil {
		cliutil.Fatalf("myproxy-http-gateway: %v", err)
	}

	logger := log.New(os.Stderr, "myproxy-http-gateway: ", log.LstdFlags)
	cred, err := cliutil.LoadCredential(*credFile, "host key pass phrase")
	if err != nil {
		cliutil.Fatalf("myproxy-http-gateway: %v", err)
	}
	roots, err := cliutil.LoadRoots(*caFile)
	if err != nil {
		cliutil.Fatalf("myproxy-http-gateway: %v", err)
	}
	loadACL := func(path, what string) *policy.ACL {
		if path == "" {
			cliutil.Fatalf("myproxy-http-gateway: -%s is required", what)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			cliutil.Fatalf("myproxy-http-gateway: %v", err)
		}
		acl, err := policy.ParseACLFile(data)
		if err != nil {
			cliutil.Fatalf("myproxy-http-gateway: %s: %v", path, err)
		}
		return acl
	}
	store, err := credstore.NewFileStore(*storeDir)
	if err != nil {
		cliutil.Fatalf("myproxy-http-gateway: %v", err)
	}
	cfg := core.ServerConfig{
		Credential:             cred,
		Roots:                  roots,
		Store:                  store,
		AcceptedCredentials:    loadACL(*acceptedFile, "accepted"),
		AuthorizedRetrievers:   loadACL(*retrieversFile, "retrievers"),
		Lifetimes:              policy.LifetimePolicy{MaxDelegated: time.Duration(*maxDelegHours) * time.Hour},
		DelegationKeyAlgorithm: alg,
		KDFIterations:          *kdfIter,
		Logger:                 logger,
	}
	if *keypoolSize > 0 {
		pool := keypool.New(*keypoolSize, 0, pki.KeySpec{Algorithm: alg})
		defer pool.Close()
		cfg.KeySource = pool
	}
	g, err := httpgate.New(cfg)
	if err != nil {
		cliutil.Fatalf("myproxy-http-gateway: %v", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		cliutil.Fatalf("myproxy-http-gateway: %v", err)
	}
	logger.Printf("gateway %s serving HTTPS+JSON on %s (store %s)", cred.Subject(), *listen, *storeDir)
	if err := g.Serve(ln); err != nil {
		cliutil.Fatalf("myproxy-http-gateway: %v", err)
	}
}
