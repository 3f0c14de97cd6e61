package credstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pki"
	"repro/internal/proxy"
	"repro/internal/testpki"
)

// storeImpls runs a subtest against each Store implementation.
func storeImpls(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMemStore()) })
	t.Run("file", func(t *testing.T) {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, fs)
	})
}

func sampleEntry(t *testing.T, username, name string) *Entry {
	t.Helper()
	e := &Entry{
		Username:      username,
		Name:          name,
		Owner:         "/C=US/O=Test Grid/CN=" + username,
		Kind:          KindDelegated,
		CertsPEM:      []byte("-----BEGIN CERTIFICATE-----\nfake\n-----END CERTIFICATE-----\n"),
		SealedKey:     []byte("sealed"),
		Description:   "sample",
		MaxDelegation: time.Hour,
		TaskTags:      []string{"hpc"},
		NotBefore:     time.Now().Add(-time.Minute).UTC().Truncate(time.Second),
		NotAfter:      time.Now().Add(time.Hour).UTC().Truncate(time.Second),
		CreatedAt:     time.Now().UTC().Truncate(time.Second),
	}
	if err := e.SetPassphrase([]byte("entry pass phrase")); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestStoreCRUD(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		e := sampleEntry(t, "jdoe", "")
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("jdoe", "")
		if err != nil {
			t.Fatal(err)
		}
		if got.Owner != e.Owner || got.Description != e.Description ||
			string(got.SealedKey) != string(e.SealedKey) ||
			!got.NotAfter.Equal(e.NotAfter) || got.MaxDelegation != e.MaxDelegation {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, e)
		}
		if _, err := s.Get("jdoe", "missing"); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing name: %v", err)
		}
		if _, err := s.Get("nobody", ""); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing user: %v", err)
		}
		if err := s.Delete("jdoe", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("jdoe", ""); !errors.Is(err, ErrNotFound) {
			t.Error("entry survived delete")
		}
		if err := s.Delete("jdoe", ""); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete: %v", err)
		}
	})
}

func TestStoreRejectsEmptyUsername(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		if err := s.Put(&Entry{}); err == nil {
			t.Error("empty username accepted")
		}
	})
}

func TestStoreReplace(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		e := sampleEntry(t, "jdoe", "")
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		e2 := sampleEntry(t, "jdoe", "")
		e2.Description = "replaced"
		if err := s.Put(e2); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("jdoe", "")
		if err != nil {
			t.Fatal(err)
		}
		if got.Description != "replaced" {
			t.Errorf("Put did not replace: %q", got.Description)
		}
	})
}

func TestStoreListOrdering(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		for _, name := range []string{"zeta", "", "alpha"} {
			if err := s.Put(sampleEntry(t, "jdoe", name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Put(sampleEntry(t, "other", "x")); err != nil {
			t.Fatal(err)
		}
		list, err := s.List("jdoe")
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 3 {
			t.Fatalf("List returned %d entries", len(list))
		}
		if list[0].Name != "" || list[1].Name != "alpha" || list[2].Name != "zeta" {
			t.Errorf("order = %q, %q, %q", list[0].Name, list[1].Name, list[2].Name)
		}
		empty, err := s.List("nobody")
		if err != nil || len(empty) != 0 {
			t.Errorf("List(nobody) = %v, %v", empty, err)
		}
	})
}

func TestStoreUsernames(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		for _, u := range []string{"carol", "alice", "bob", "alice"} {
			if err := s.Put(sampleEntry(t, u, "")); err != nil {
				t.Fatal(err)
			}
		}
		users, err := s.Usernames()
		if err != nil {
			t.Fatal(err)
		}
		if len(users) != 3 || users[0] != "alice" || users[1] != "bob" || users[2] != "carol" {
			t.Errorf("Usernames = %v", users)
		}
	})
}

func TestStoreIsolationFromCallerMutation(t *testing.T) {
	s := NewMemStore()
	e := sampleEntry(t, "jdoe", "")
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	e.SealedKey[0] = 'X' // caller mutates after Put
	got, _ := s.Get("jdoe", "")
	if got.SealedKey[0] == 'X' {
		t.Error("store aliased caller's slice")
	}
	got.TaskTags[0] = "mutated" // caller mutates result
	again, _ := s.Get("jdoe", "")
	if again.TaskTags[0] == "mutated" {
		t.Error("store aliased returned slice")
	}
}

func TestPassphraseVerifier(t *testing.T) {
	e := &Entry{}
	if err := e.SetPassphrase([]byte("open sesame")); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckPassphrase([]byte("open sesame")); err != nil {
		t.Errorf("correct pass phrase rejected: %v", err)
	}
	if err := e.CheckPassphrase([]byte("wrong")); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("wrong pass phrase: %v", err)
	}
	if err := (&Entry{}).CheckPassphrase([]byte("x")); err == nil {
		t.Error("entry without verifier accepted a pass phrase")
	}
}

// VerifierIter is read from the stored entry, like a sealed container's
// header: a crafted count must be refused before the KDF runs.
func TestCheckPassphraseRefusesExcessiveIterations(t *testing.T) {
	e := &Entry{}
	if err := e.SetPassphrase([]byte("open sesame")); err != nil {
		t.Fatal(err)
	}
	for _, iter := range []int{1 << 40, pki.MaxKDFIterations + 1} {
		e.VerifierIter = iter
		done := make(chan error, 1)
		go func() { done <- e.CheckPassphrase([]byte("open sesame")) }()
		select {
		case err := <-done:
			if err == nil || errors.Is(err, ErrBadPassphrase) {
				t.Errorf("iter=%d: CheckPassphrase ran the KDF (err %v)", iter, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iter=%d: CheckPassphrase still deriving after 5s", iter)
		}
	}
}

func TestSealUnsealDelegated(t *testing.T) {
	user := testpki.User(t, "store-alice")
	p, err := proxy.New(user, proxy.Options{Type: proxy.RFC3820, Lifetime: time.Hour, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Username: "alice", Owner: user.Subject()}
	pass := []byte("store pass phrase")
	if err := SealDelegated(e, p, pass, 64); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindDelegated {
		t.Error("kind not set")
	}
	if !e.NotAfter.Equal(p.Certificate.NotAfter) {
		t.Error("validity not mirrored")
	}
	back, err := UnsealDelegated(e, pass)
	if err != nil {
		t.Fatalf("UnsealDelegated: %v", err)
	}
	if !pki.PublicKeysEqual(back.PrivateKey.Public(), p.PrivateKey.Public()) {
		t.Error("key mismatch")
	}
	if back.Subject() != p.Subject() {
		t.Error("certificate mismatch")
	}
	if len(back.Chain) != len(p.Chain) {
		t.Errorf("chain length %d, want %d", len(back.Chain), len(p.Chain))
	}
	if _, err := UnsealDelegated(e, []byte("wrong")); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("wrong pass: %v", err)
	}
	stored := &Entry{Kind: KindStored}
	if _, err := UnsealDelegated(stored, pass); err == nil {
		t.Error("KindStored unsealed as delegated")
	}
}

func TestReseal(t *testing.T) {
	user := testpki.User(t, "store-alice")
	p, err := proxy.New(user, proxy.Options{Type: proxy.Legacy, Lifetime: time.Hour, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Username: "alice"}
	oldPass, newPass := []byte("old pass phrase"), []byte("new pass phrase")
	if err := SealDelegated(e, p, oldPass, 64); err != nil {
		t.Fatal(err)
	}
	if err := Reseal(e, []byte("bad"), newPass, 64); !errors.Is(err, ErrBadPassphrase) {
		t.Errorf("reseal with bad pass: %v", err)
	}
	if err := Reseal(e, oldPass, newPass, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := UnsealDelegated(e, oldPass); err == nil {
		t.Error("old pass phrase still works after reseal")
	}
	if _, err := UnsealDelegated(e, newPass); err != nil {
		t.Errorf("new pass phrase rejected: %v", err)
	}
	if err := e.CheckPassphrase(newPass); err != nil {
		t.Errorf("verifier not updated: %v", err)
	}
}

func TestEntryExpired(t *testing.T) {
	e := &Entry{NotAfter: time.Now().Add(-time.Minute)}
	if !e.Expired(time.Now()) {
		t.Error("expired entry not reported")
	}
	e.NotAfter = time.Now().Add(time.Minute)
	if e.Expired(time.Now()) {
		t.Error("valid entry reported expired")
	}
	if (&Entry{}).Expired(time.Now()) {
		t.Error("zero NotAfter treated as expired")
	}
}

func TestKindString(t *testing.T) {
	if KindDelegated.String() != "delegated" || KindStored.String() != "stored" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "credstore.Kind(9)" {
		t.Errorf("unknown kind = %q", Kind(9).String())
	}
}

func TestFileStorePersistence(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(sampleEntry(t, "jdoe", "persistent")); err != nil {
		t.Fatal(err)
	}
	// Re-open the same directory: the entry must still be there.
	fs2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Get("jdoe", "persistent")
	if err != nil {
		t.Fatal(err)
	}
	if got.Username != "jdoe" || got.Name != "persistent" {
		t.Errorf("got %q/%q", got.Username, got.Name)
	}
}
