// Package objstore is the durable-object-store substrate (paper section
// 3.4): Pinot keeps all persistent segment data in a blob store (NFS at
// LinkedIn, Azure Disk elsewhere) and treats local disk as a cache. Both an
// in-memory and a filesystem-backed implementation are provided.
package objstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned when a key does not exist.
var ErrNotFound = errors.New("objstore: object not found")

// Store is a flat blob store keyed by slash-separated names.
type Store interface {
	// Put stores a copy of data: the caller keeps its slice.
	Put(key string, data []byte) error
	// Get returns the blob, read-only. A loaded segment serves queries from
	// these very bytes (segment.Unmarshal), and Mem hands every caller the
	// one copy it holds, so a write through the returned slice would edit
	// the object under the store and under every server reading it. A
	// caller that needs to change the bytes copies them first.
	Get(key string) ([]byte, error)
	Delete(key string) error
	Exists(key string) (bool, error)
	// List returns keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// Mem is an in-memory Store safe for concurrent use.
type Mem struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{objects: map[string][]byte{}} }

// Put stores a copy of the blob.
func (m *Mem) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objects[key] = append([]byte(nil), data...)
	return nil
}

// Get returns the stored blob itself, read-only (see Store): every replica
// that loads a segment in this process shares the store's bytes. A later Put
// or Delete of the key leaves the returned slice intact.
func (m *Mem) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data[:len(data):len(data)], nil
}

// Delete removes a blob; deleting a missing key is not an error.
func (m *Mem) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.objects, key)
	return nil
}

// Exists reports whether the key holds a blob.
func (m *Mem) Exists(key string) (bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.objects[key]
	return ok, nil
}

// List returns sorted keys with the prefix.
func (m *Mem) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for k := range m.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// FS is a filesystem-backed Store rooted at a directory. Keys map to file
// paths under the root; key components must not escape it.
type FS struct {
	root string
}

// NewFS returns a store rooted at dir, creating it if needed.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FS{root: dir}, nil
}

func (f *FS) path(key string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(key))
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
		return "", fmt.Errorf("objstore: invalid key %q", key)
	}
	return filepath.Join(f.root, clean), nil
}

// Put stores a blob, creating parent directories.
func (f *FS) Put(key string, data []byte) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

// Get fetches a blob.
func (f *FS) Get(key string) ([]byte, error) {
	p, err := f.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data, err
}

// Delete removes a blob; deleting a missing key is not an error.
func (f *FS) Delete(key string) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Exists reports whether the key holds a blob.
func (f *FS) Exists(key string) (bool, error) {
	p, err := f.path(key)
	if err != nil {
		return false, err
	}
	_, err = os.Stat(p)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// List returns sorted keys with the prefix.
func (f *FS) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(f.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(f.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}
