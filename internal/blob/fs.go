package blob

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"graphct/internal/failpoint"
)

// FS is the filesystem Store: keys map to files under a root directory,
// every object is CRC32C-framed, and Put commits with write-to-temp +
// fsync + atomic rename so a crash never leaves a torn object under a
// live key.
type FS struct {
	root string
}

// NewFS returns a store rooted at dir. The directory is created lazily on
// the first Put, so constructing a store is infallible and read paths
// over a missing root simply see no objects.
func NewFS(dir string) *FS { return &FS{root: dir} }

func (s *FS) path(key string) string {
	return filepath.Join(s.root, filepath.FromSlash(key))
}

// Put implements Store. The blob.put failpoint fires before any I/O, so
// an injected failure leaves both the store and the filesystem unchanged.
func (s *FS) Put(key string, data []byte) error {
	if err := failpoint.Eval(failpoint.BlobPut); err != nil {
		return err
	}
	if err := ValidateKey(key); err != nil {
		return err
	}
	return atomicWriteFile(s.path(key), encodeFrame(data))
}

// Get implements Store.
func (s *FS) Get(key string) ([]byte, error) {
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, err
	}
	payload, err := decodeFrame(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	return payload, nil
}

// List implements Store. Temp files from in-flight Puts are skipped, so a
// crashed commit never surfaces as a key.
func (s *FS) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) && path == s.root {
				return nil // no root yet: empty store
			}
			return err
		}
		if d.IsDir() || strings.Contains(d.Name(), ".tmp-") {
			return nil
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete implements Store.
func (s *FS) Delete(key string) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	if err := os.Remove(s.path(key)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return err
	}
	return nil
}
