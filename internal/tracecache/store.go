package tracecache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Store is the trace cache's on-disk layer: one OTC1 blob per file in one
// directory, named by Key.filename (a readability prefix from SanitizeName
// plus the key's stable hash). Writes are atomic (temp file + rename), so
// processes sharing a cache directory never observe a torn blob.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) the blob directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tracecache: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracecache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Load reads a blob by name. Any failure (most commonly a missing file)
// degrades to nil — blob stores are caches, never sources of truth.
func (s *Store) Load(name string) []byte {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil
	}
	return data
}

// Save writes a blob atomically (temp file + rename).
func (s *Store) Save(name string, data []byte) error {
	f, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, filepath.Join(s.dir, name))
	}
	if werr != nil {
		os.Remove(tmp)
	}
	return werr
}

// Remove deletes a blob (a decoder that finds corruption removes the file so
// it cannot fail every future run).
func (s *Store) Remove(name string) {
	os.Remove(filepath.Join(s.dir, name))
}

// SanitizeName maps an arbitrary identifier to the filename-safe charset
// blob names use as their readability prefix.
func SanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}
