package report

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type failAfter struct {
	n int
}

var errSink = errors.New("sink failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errSink
	}
	f.n--
	return len(p), nil
}

func TestErrWriterRecordsFirstError(t *testing.T) {
	w := NewErrWriter(&failAfter{n: 1})
	w.Printf("first write: %d\n", 1)
	if w.Err() != nil {
		t.Fatalf("first write errored: %v", w.Err())
	}
	w.Printf("second write fails\n")
	if !errors.Is(w.Err(), errSink) {
		t.Fatalf("error not recorded: %v", w.Err())
	}
	w.Printf("third write is dropped")
	if !errors.Is(w.Err(), errSink) {
		t.Fatalf("first error not sticky: %v", w.Err())
	}
}

func TestErrWriterPassthrough(t *testing.T) {
	var buf bytes.Buffer
	w := NewErrWriter(&buf)
	w.Printf("a=%d ", 1)
	w.Printf("b\n")
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if buf.String() != "a=1 b\n" {
		t.Fatalf("wrote %q", buf.String())
	}
}

func TestOpenOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	w, closeFn, err := OpenOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Printf("hello\n")
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello\n" {
		t.Fatalf("file holds %q", data)
	}
}

func TestOpenOutputStdout(t *testing.T) {
	w, closeFn, err := OpenOutput("")
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("nil writer for stdout")
	}
	if err := closeFn(); err != nil {
		t.Fatalf("stdout close: %v", err)
	}
}

func TestOpenOutputBadPath(t *testing.T) {
	if _, _, err := OpenOutput(filepath.Join(t.TempDir(), "no", "such", "dir", "f")); err == nil {
		t.Fatal("creating a file in a missing directory succeeded")
	}
}
