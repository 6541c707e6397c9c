package machine

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := Jaketown()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"gamma_t"`) {
		t.Errorf("schema should use symbol names: %s", data)
	}
	var back Params
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Errorf("round trip changed params:\n%+v\n%+v", orig, back)
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "machine.json")
	orig := Illustrative()
	if err := saveFile(orig, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Error("file round trip changed params")
	}
}

func TestLoadFileValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := Jaketown()
	bad.GammaT = -1
	data, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("invalid parameters should be rejected on load")
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := writeFile(path, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("malformed JSON should error")
	}
}

// TestLoadFileRejectsUnknownKeys: a misspelt key is an error naming it,
// not a parameter silently left at zero (a "detla_e" would load as δe = 0
// and drop Eq. 2's memory term).
func TestLoadFileRejectsUnknownKeys(t *testing.T) {
	data, err := json.Marshal(Jaketown())
	if err != nil {
		t.Fatal(err)
	}
	misspelt := strings.Replace(string(data), `"delta_e"`, `"detla_e"`, 1)
	if misspelt == string(data) {
		t.Fatal("fixture has no delta_e key")
	}
	path := filepath.Join(t.TempDir(), "misspelt.json")
	if err := writeFile(path, []byte(misspelt)); err != nil {
		t.Fatal(err)
	}
	p, err := LoadFile(path)
	if err == nil || !strings.Contains(err.Error(), "detla_e") {
		t.Errorf("LoadFile accepted a misspelt key: params %+v, error %v", p, err)
	}
	var q Params
	if err := json.Unmarshal([]byte(misspelt), &q); err == nil {
		t.Error("json.Unmarshal into Params accepted a misspelt key")
	}
}

// FuzzMachineJSON feeds arbitrary bytes to what LoadFile does with a
// file's contents: decode, then validate. Every input must load or fail
// with a returned error, never panic, and a loaded machine must survive a
// round trip through its own encoding unchanged.
func FuzzMachineJSON(f *testing.F) {
	for _, m := range []Params{SimDefault(), Jaketown(), Illustrative()} {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "x", "detla_e": 5.8e-9}`))
	f.Add([]byte(`{"gamma_t": 1e400}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Params
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			return
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("a loaded machine does not encode: %v", err)
		}
		var back Params
		if err := json.Unmarshal(enc, &back); err != nil || back != p {
			t.Fatalf("round trip changed the machine: %+v → %+v (%v)", p, back, err)
		}
	})
}

func TestResolve(t *testing.T) {
	if p, err := Resolve("jaketown"); err != nil || p.Name != "jaketown" {
		t.Errorf("preset resolve failed: %v %v", p.Name, err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := saveFile(SimDefault(), path); err != nil {
		t.Fatal(err)
	}
	if p, err := Resolve(path); err != nil || p.Name != "simdefault" {
		t.Errorf("file resolve failed: %v %v", p.Name, err)
	}
	if _, err := Resolve("nonsense"); err == nil {
		t.Error("unknown preset should error")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// saveFile writes p to path as the JSON that LoadFile reads.
func saveFile(p Params, path string) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return writeFile(path, data)
}
