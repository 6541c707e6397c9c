package report

import (
	"fmt"
	"io"
	"os"
)

// ErrWriter wraps an io.Writer and remembers the first write failure, so
// report-emitting commands can print unconditionally and check once at the
// end instead of threading an error through every Fprintf. A full disk or a
// closed pipe must fail the command (exit non-zero), not silently truncate
// an artifact.
type ErrWriter struct {
	w   io.Writer
	err error
}

// NewErrWriter wraps w.
func NewErrWriter(w io.Writer) *ErrWriter { return &ErrWriter{w: w} }

// Write implements io.Writer. After the first failure, writes are dropped.
func (e *ErrWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// Printf formats to the underlying writer, recording the first error.
func (e *ErrWriter) Printf(format string, args ...any) {
	fmt.Fprintf(e, format, args...)
}

// Err reports the first write failure, or nil.
func (e *ErrWriter) Err() error { return e.err }

// OpenOutput opens the report destination for a command's -o flag: the
// named file, or stdout when path is empty. The returned close function
// must be called (and its error checked) before exiting — Close is where a
// buffered ENOSPC surfaces; stdout's close is a no-op.
func OpenOutput(path string) (*ErrWriter, func() error, error) {
	if path == "" {
		return NewErrWriter(os.Stdout), func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return NewErrWriter(f), f.Close, nil
}
