package credstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

// FuzzUnsealDelegated feeds arbitrary SealedKey and CertsPEM bytes into
// UnsealDelegated: PEM decoding, the sealed-container header (its KDF
// iteration count included), AES-GCM, the key DER and the certificate PEM
// all see bytes a tampered store controls. Seeds are real SealDelegated
// output at a low iteration count. Invariants beyond "no panic": whatever
// opens under the right pass phrase refuses a wrong one with
// ErrBadPassphrase, and reseals to an entry that unseals to the same
// credential.
func FuzzUnsealDelegated(f *testing.F) {
	const iter = 16
	pass, wrong := []byte("fuzz pass phrase"), []byte("not the pass phrase")
	user := testpki.User(f, "fuzz-alice")
	for _, alg := range []pki.KeyAlgorithm{pki.AlgEd25519, pki.AlgRSA} {
		p, err := proxy.New(user, proxy.Options{Type: proxy.RFC3820, Lifetime: time.Hour, KeyAlgorithm: alg, KeyBits: 1024})
		if err != nil {
			f.Fatal(err)
		}
		e := &Entry{}
		if err := SealDelegated(e, p, pass, iter); err != nil {
			f.Fatal(err)
		}
		f.Add(e.SealedKey, e.CertsPEM)
		f.Add(e.SealedKey, []byte(nil))
	}
	f.Add([]byte("-----BEGIN ENCRYPTED GRID KEY-----\nR1JJREtFWTE=\n-----END ENCRYPTED GRID KEY-----\n"), []byte(nil))
	f.Fuzz(func(t *testing.T, sealed, certs []byte) {
		e := &Entry{Kind: KindDelegated, SealedKey: sealed, CertsPEM: certs}
		cred, err := UnsealDelegated(e, pass)
		if _, werr := UnsealDelegated(e, wrong); werr == nil {
			t.Fatal("a wrong pass phrase unsealed the entry")
		} else if err == nil && !errors.Is(werr, ErrBadPassphrase) {
			t.Fatalf("wrong pass phrase on an openable entry: %v, want ErrBadPassphrase", werr)
		}
		if err != nil {
			return // refusing malformed bytes is fine
		}
		again := &Entry{}
		if err := SealDelegated(again, cred, pass, iter); err != nil {
			t.Fatalf("reseal of an unsealed credential: %v", err)
		}
		back, err := UnsealDelegated(again, pass)
		if err != nil {
			t.Fatalf("unseal of the resealed entry: %v", err)
		}
		if !pki.PublicKeysEqual(back.PrivateKey.Public(), cred.PrivateKey.Public()) ||
			!back.Certificate.Equal(cred.Certificate) || len(back.Chain) != len(cred.Chain) {
			t.Fatal("reseal round trip changed the credential")
		}
	})
}
