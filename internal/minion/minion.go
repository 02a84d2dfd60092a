// Package minion implements Pinot minions (paper 3.2): workers that run
// compute-intensive maintenance tasks scheduled by the controller. The
// built-in tasks mirror the paper's example: purge jobs download a segment,
// expunge unwanted records, rewrite and reindex the segment, and upload it
// back, replacing the previous version.
package minion

import (
	"fmt"
	"sync"
	"time"

	"pinot/internal/controller"
	"pinot/internal/metrics"
	"pinot/internal/segment"
	"pinot/internal/startree"
	"pinot/internal/table"
)

// ControllerAPI is the minion's view of the lead controller.
type ControllerAPI interface {
	IsLeader() bool
	ClaimTask(minion string) (*controller.Task, error)
	CompleteTask(id string, taskErr error) error
	FetchSegmentBlob(resource, segment string) ([]byte, error)
	TableConfig(resource string) (*table.Config, error)
	UploadSegment(resource string, blob []byte) error
}

// Config tunes a minion worker.
type Config struct {
	Instance string
	// Metrics receives the minion's instrumentation; nil means the
	// process-wide metrics.Default().
	Metrics *metrics.Registry
}

// pollInterval is how often a minion asks the lead controller for a task.
const pollInterval = 20 * time.Millisecond

// Minion polls the lead controller for tasks and executes them.
type Minion struct {
	cfg         Config
	controllers func() []ControllerAPI

	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	completed int
	failed    int

	tasks *metrics.Family // labels: instance, type, result
}

// New creates a minion. controllers resolves the candidate controllers; the
// current leader is used.
func New(cfg Config, controllers func() []ControllerAPI) *Minion {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	tasks := reg.Counter("pinot_minion_tasks_total",
		"Minion tasks executed, by type and result.", "instance", "type", "result")
	return &Minion{cfg: cfg, controllers: controllers, tasks: tasks}
}

// Start begins the task-polling loop.
func (m *Minion) Start() {
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		ticker := time.NewTicker(pollInterval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
				m.poll()
			}
		}
	}()
}

// Stop halts the minion.
func (m *Minion) Stop() {
	if m.stop != nil {
		close(m.stop)
		<-m.done
		m.stop = nil
	}
}

// Counters reports how many tasks completed and failed.
func (m *Minion) Counters() (completed, failed int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completed, m.failed
}

func (m *Minion) leader() (ControllerAPI, bool) {
	for _, c := range m.controllers() {
		if c.IsLeader() {
			return c, true
		}
	}
	return nil, false
}

func (m *Minion) poll() {
	ctrl, ok := m.leader()
	if !ok {
		return
	}
	task, err := ctrl.ClaimTask(m.cfg.Instance)
	if err != nil || task == nil {
		return
	}
	err = m.execute(ctrl, task)
	_ = ctrl.CompleteTask(task.ID, err)
	result := "ok"
	m.mu.Lock()
	if err != nil {
		m.failed++
		result = "fail"
	} else {
		m.completed++
	}
	m.mu.Unlock()
	m.tasks.With(m.cfg.Instance, string(task.Type), result).Inc()
}

// execute runs one task: download, rewrite, re-upload.
func (m *Minion) execute(ctrl ControllerAPI, t *controller.Task) error {
	switch t.Type {
	case controller.TaskPurge, controller.TaskReindex:
	default:
		return fmt.Errorf("minion: unknown task type %q", t.Type)
	}
	blob, err := ctrl.FetchSegmentBlob(t.Resource, t.Segment)
	if err != nil {
		return err
	}
	seg, err := segment.Unmarshal(blob)
	if err != nil {
		return err
	}
	cfg, err := ctrl.TableConfig(t.Resource)
	if err != nil {
		return err
	}
	newBlob, err := RewriteSegment(seg, cfg, t)
	if err != nil {
		return err
	}
	return ctrl.UploadSegment(t.Resource, newBlob)
}

// RewriteSegment rebuilds a segment applying a task's record filter (purge)
// and the table's current index configuration (reindex), returning the new
// blob.
func RewriteSegment(seg *segment.Segment, cfg *table.Config, t *controller.Task) ([]byte, error) {
	keep := func(doc int) bool { return true }
	if t.Type == controller.TaskPurge {
		if t.PurgeColumn == "" {
			return nil, fmt.Errorf("minion: purge task %s has no purge column", t.ID)
		}
		col := seg.Column(t.PurgeColumn)
		if col == nil {
			return nil, fmt.Errorf("minion: purge column %q not in segment", t.PurgeColumn)
		}
		purge := make(map[string]bool, len(t.PurgeValues))
		for _, v := range t.PurgeValues {
			purge[v] = true
		}
		spec := col.Spec()
		keep = func(doc int) bool {
			if spec.SingleValue {
				return !purge[fmt.Sprint(col.Value(col.DictID(doc)))]
			}
			var buf []int
			for _, id := range col.DictIDsMV(doc, buf) {
				if purge[fmt.Sprint(col.Value(id))] {
					return false
				}
			}
			return true
		}
	}
	b, err := segment.NewBuilder(cfg.Name, seg.Name(), seg.Schema(), cfg.IndexConfig())
	if err != nil {
		return nil, err
	}
	kept := 0
	for doc := 0; doc < seg.NumDocs(); doc++ {
		if !keep(doc) {
			continue
		}
		if err := b.Add(segment.ReadRow(seg, doc)); err != nil {
			return nil, err
		}
		kept++
	}
	if kept == 0 {
		return nil, fmt.Errorf("minion: purge would empty segment %s; delete it instead", seg.Name())
	}
	out, err := b.Build()
	if err != nil {
		return nil, err
	}
	if cfg.StarTree != nil {
		tree, err := startree.Build(out, *cfg.StarTree)
		if err != nil {
			return nil, err
		}
		data, err := tree.Marshal()
		if err != nil {
			return nil, err
		}
		out.SetStarTreeData(data)
	}
	return out.Marshal()
}
