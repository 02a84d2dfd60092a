// Package controller implements the Pinot controller (paper 3.2): the
// authority over segment-to-server mappings. It admits tables, validates and
// assigns uploaded segments, garbage-collects expired segments, runs the
// realtime segment completion protocol (3.3.6), and schedules minion tasks.
// Multiple controller instances run per cluster with a single Helix-elected
// master; the others stay idle.
package controller

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/objstore"
	"pinot/internal/segment"
	"pinot/internal/stream"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// ErrNotLeader is returned by admin operations on a non-leader controller.
var ErrNotLeader = errors.New("controller: not the lead controller")

// Config tunes a controller instance.
type Config struct {
	Cluster  string
	Instance string
	// CompletionWindow is how long the completion FSM waits for replica
	// polls before designating a committer.
	CompletionWindow time.Duration
	// RetentionInterval is the period of the retention manager sweep.
	RetentionInterval time.Duration
	// Metrics receives the controller's instrumentation; nil means the
	// process-wide metrics.Default().
	Metrics *metrics.Registry
}

func (c *Config) withDefaults() {
	if c.CompletionWindow <= 0 {
		c.CompletionWindow = 200 * time.Millisecond
	}
	if c.RetentionInterval <= 0 {
		c.RetentionInterval = 250 * time.Millisecond
	}
}

// Controller is one controller instance.
type Controller struct {
	cfg      Config
	store    zkmeta.Endpoint
	objects  objstore.Store
	streams  *stream.Cluster
	helixCtl *helix.Controller
	met      *controllerMetrics

	// conn bundles the metadata session with the helix admin built on it;
	// both are replaced together when the session expires.
	conn   atomic.Pointer[zkConn]
	closed atomic.Bool

	mu          sync.Mutex
	completions map[string]*completionFSM // resource/segment -> FSM

	stop chan struct{}
	done chan struct{}
}

type zkConn struct {
	sess  zkmeta.Client
	admin *helix.Admin
}

func (c *Controller) session() zkmeta.Client   { return c.conn.Load().sess }
func (c *Controller) helixAdmin() *helix.Admin { return c.conn.Load().admin }

// connect opens a metadata session (replacing any expired one) and arms the
// expiry hook so the controller reconnects like a real Zookeeper client:
// durable metadata survives, only in-flight operations fail.
func (c *Controller) connect() {
	sess := c.store.NewClient()
	sess.OnExpire(func() {
		if c.closed.Load() {
			return
		}
		c.connect()
	})
	c.conn.Store(&zkConn{sess: sess, admin: helix.NewAdmin(sess, c.cfg.Cluster)})
}

// ExpireSession simulates Zookeeper session expiry on this controller (chaos
// hook): both the metadata session and the leader-election session expire,
// so leadership is lost and must be re-won over fresh sessions. In-flight
// completion-protocol writes fail and replicas retry, exactly the scenario
// of paper 3.3.6's failure analysis.
func (c *Controller) ExpireSession() {
	if c.helixCtl != nil {
		c.helixCtl.ExpireSession()
	}
	c.session().Expire()
}

// New creates a controller instance attached to the shared substrates.
func New(cfg Config, store zkmeta.Endpoint, objects objstore.Store, streams *stream.Cluster) *Controller {
	cfg.withDefaults()
	return &Controller{
		cfg:         cfg,
		store:       store,
		objects:     objects,
		streams:     streams,
		met:         newControllerMetrics(cfg.Metrics, cfg.Instance),
		completions: map[string]*completionFSM{},
	}
}

// Metrics returns the registry this controller records into.
func (c *Controller) Metrics() *metrics.Registry { return c.met.reg }

// Instance returns the controller's instance name.
func (c *Controller) Instance() string { return c.cfg.Instance }

// Start joins the cluster and begins contending for leadership.
func (c *Controller) Start() error {
	c.connect()
	if err := c.helixAdmin().CreateCluster(); err != nil {
		return err
	}
	for _, p := range []string{
		helix.PropertyStorePath(c.cfg.Cluster, "CONFIGS"),
		helix.PropertyStorePath(c.cfg.Cluster, "CONFIGS", "TABLE"),
		helix.PropertyStorePath(c.cfg.Cluster, "SEGMENTS"),
		helix.PropertyStorePath(c.cfg.Cluster, "TASKS"),
	} {
		if err := c.session().Create(p, nil); err != nil && err != zkmeta.ErrNodeExists {
			return err
		}
	}
	c.helixCtl = helix.NewController(c.store, c.cfg.Cluster, c.cfg.Instance)
	c.helixCtl.OnLeadershipChange(func(leader bool) {
		if leader {
			// Paper 3.3.6: a new blank completion state machine on
			// the new leader; this only delays commits.
			c.mu.Lock()
			c.completions = map[string]*completionFSM{}
			c.mu.Unlock()
		}
	})
	if err := c.helixCtl.Start(); err != nil {
		return err
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.retentionLoop()
	return nil
}

// Stop halts the controller.
func (c *Controller) Stop() {
	if c.stop != nil {
		close(c.stop)
		<-c.done
		c.stop = nil
	}
	if c.helixCtl != nil {
		c.helixCtl.Stop()
	}
	c.closed.Store(true)
	if cn := c.conn.Load(); cn != nil {
		cn.sess.Close()
	}
}

// IsLeader reports whether this instance holds cluster mastership.
func (c *Controller) IsLeader() bool { return c.helixCtl.IsLeader() }

// Kick requests an immediate Helix rebalance pass.
func (c *Controller) Kick() { c.helixCtl.Kick() }

func (c *Controller) tableConfigPath(resource string) string {
	return helix.PropertyStorePath(c.cfg.Cluster, "CONFIGS", "TABLE", resource)
}

func (c *Controller) segmentsPath(resource string) string {
	return helix.PropertyStorePath(c.cfg.Cluster, "SEGMENTS", resource)
}

func (c *Controller) segmentMetaPath(resource, seg string) string {
	return c.segmentsPath(resource) + "/" + seg
}

// AddTable admits a table: stores its config, creates its (empty) ideal
// state and, for realtime tables, seeds the initial consuming segments.
func (c *Controller) AddTable(cfg *table.Config) error {
	if !c.IsLeader() {
		return ErrNotLeader
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	data, err := jsonMarshal(cfg)
	if err != nil {
		return err
	}
	resource := cfg.Resource()
	if err := c.session().Create(c.tableConfigPath(resource), data); err != nil {
		if err == zkmeta.ErrNodeExists {
			return fmt.Errorf("controller: table %s already exists", resource)
		}
		return err
	}
	if err := c.session().Create(c.segmentsPath(resource), nil); err != nil && err != zkmeta.ErrNodeExists {
		return err
	}
	is := &helix.IdealState{Resource: resource, NumReplicas: cfg.Replicas, Partitions: map[string]map[string]string{}}
	if cfg.Type == table.Realtime {
		if err := c.seedConsumingSegments(cfg, is); err != nil {
			return err
		}
	}
	if err := c.helixAdmin().SetIdealState(is); err != nil {
		return err
	}
	c.helixCtl.Kick()
	return nil
}

// UpdateTable replaces a table's stored config (schema evolution, index
// changes). The resource must exist.
func (c *Controller) UpdateTable(cfg *table.Config) error {
	if !c.IsLeader() {
		return ErrNotLeader
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	data, err := jsonMarshal(cfg)
	if err != nil {
		return err
	}
	if _, err := c.session().Set(c.tableConfigPath(cfg.Resource()), data, -1); err != nil {
		return fmt.Errorf("controller: update table %s: %w", cfg.Resource(), err)
	}
	return nil
}

// seedConsumingSegments creates the sequence-0 consuming segment per stream
// partition.
func (c *Controller) seedConsumingSegments(cfg *table.Config, is *helix.IdealState) error {
	topic, err := c.streams.Topic(cfg.StreamTopic)
	if err != nil {
		return fmt.Errorf("controller: table %s: %w", cfg.Name, err)
	}
	servers, err := c.eligibleServers(cfg)
	if err != nil {
		return err
	}
	if len(servers) == 0 {
		return fmt.Errorf("controller: no servers available for table %s", cfg.Name)
	}
	for p := 0; p < topic.NumPartitions(); p++ {
		segName := table.ConsumingSegmentName(cfg.Name, p, 0)
		startOffset, err := topic.LatestOffset(p)
		if err != nil {
			return err
		}
		meta := &table.SegmentMeta{
			Name:        segName,
			Resource:    cfg.Resource(),
			Status:      table.StatusInProgress,
			Partition:   p,
			StartOffset: startOffset,
			EndOffset:   -1,
		}
		if err := c.session().Create(c.segmentMetaPath(cfg.Resource(), segName), meta.Marshal()); err != nil {
			return err
		}
		replicas := pickReplicas(servers, is, cfg.Replicas, p)
		assignment := map[string]string{}
		for _, r := range replicas {
			assignment[r] = helix.StateConsuming
		}
		is.Partitions[segName] = assignment
	}
	return nil
}

// DeleteTable removes a table: its ideal state (dropping segments from
// servers), segment metadata and blobs, and config.
func (c *Controller) DeleteTable(name string, typ table.Type) error {
	if !c.IsLeader() {
		return ErrNotLeader
	}
	resource := table.ResourceName(name, typ)
	// Drop all segments first so servers unload.
	if err := c.helixAdmin().UpdateIdealState(resource, func(is *helix.IdealState) bool {
		for _, replicas := range is.Partitions {
			for inst := range replicas {
				replicas[inst] = helix.StateDropped
			}
		}
		return true
	}); err != nil && err != zkmeta.ErrNoNode {
		return err
	}
	c.helixCtl.Kick()
	segs, _ := c.session().Children(c.segmentsPath(resource))
	for _, s := range segs {
		data, _, err := c.session().Get(c.segmentMetaPath(resource, s))
		if err == nil {
			if meta, err := table.UnmarshalSegmentMeta(data); err == nil && meta.ObjectKey != "" {
				_ = c.objects.Delete(meta.ObjectKey)
			}
		}
		_ = c.session().Delete(c.segmentMetaPath(resource, s), -1)
	}
	_ = c.session().Delete(c.segmentsPath(resource), -1)
	if err := c.helixAdmin().DropResource(resource); err != nil {
		return err
	}
	if err := c.session().Delete(c.tableConfigPath(resource), -1); err != nil && err != zkmeta.ErrNoNode {
		return err
	}
	c.helixCtl.Kick()
	return nil
}

// TableConfig reads a table's config by resource name.
func (c *Controller) TableConfig(resource string) (*table.Config, error) {
	return ReadTableConfig(c.session(), c.cfg.Cluster, resource)
}

// Tables lists resources with a config.
func (c *Controller) Tables() ([]string, error) {
	return c.session().Children(helix.PropertyStorePath(c.cfg.Cluster, "CONFIGS", "TABLE"))
}

// SegmentMetas returns all segment metadata of a resource.
func (c *Controller) SegmentMetas(resource string) ([]*table.SegmentMeta, error) {
	return ReadSegmentMetas(c.session(), c.cfg.Cluster, resource)
}

// UploadSegment performs the data-upload flow of paper 3.3.5: unpack the
// blob to verify integrity, enforce the table quota, write segment metadata,
// then update the desired cluster state so servers load it. Re-uploading an
// existing segment name replaces it (updates and corrections, paper 3.1).
func (c *Controller) UploadSegment(resource string, blob []byte) error {
	if !c.IsLeader() {
		return ErrNotLeader
	}
	cfg, err := c.TableConfig(resource)
	if err != nil {
		return fmt.Errorf("controller: unknown table %s: %w", resource, err)
	}
	seg, err := checkSegment(blob)
	if err != nil {
		return fmt.Errorf("controller: segment rejected: %w", err)
	}
	smeta := seg.Metadata()
	// Quota check.
	if cfg.QuotaBytes > 0 {
		existing, err := c.SegmentMetas(resource)
		if err != nil {
			return err
		}
		var total int64
		for _, m := range existing {
			if m.Name != seg.Name() {
				total += m.SizeBytes
			}
		}
		if total+int64(len(blob)) > cfg.QuotaBytes {
			return fmt.Errorf("controller: segment %s would put table %s over quota (%d + %d > %d bytes)",
				seg.Name(), resource, total, len(blob), cfg.QuotaBytes)
		}
	}
	crc := crc32Of(blob)
	key := table.SegmentObjectKey(resource, seg.Name(), crc)
	if err := c.objects.Put(key, blob); err != nil {
		return err
	}
	partition := -1
	if cfg.PartitionColumn != "" {
		partition = partitionOfSegment(seg, cfg)
	}
	meta := &table.SegmentMeta{
		Name:      seg.Name(),
		Resource:  resource,
		Status:    table.StatusDone,
		NumDocs:   seg.NumDocs(),
		SizeBytes: int64(len(blob)),
		MinTime:   smeta.MinTime,
		MaxTime:   smeta.MaxTime,
		ObjectKey: key,
		CRC:       crc,
		Partition: partition,
	}
	metaPath := c.segmentMetaPath(resource, seg.Name())
	replace := false
	if err := c.session().Create(metaPath, meta.Marshal()); err != nil {
		if err != zkmeta.ErrNodeExists {
			return err
		}
		replace = true
		if _, err := c.session().Set(metaPath, meta.Marshal(), -1); err != nil {
			return err
		}
	}
	if replace {
		return c.refreshSegment(resource, seg.Name())
	}
	servers, err := c.eligibleServers(cfg)
	if err != nil {
		return err
	}
	if len(servers) == 0 {
		return fmt.Errorf("controller: no servers available for table %s", resource)
	}
	err = c.helixAdmin().UpdateIdealState(resource, func(is *helix.IdealState) bool {
		replicas := pickReplicas(servers, is, cfg.Replicas, len(is.Partitions))
		assignment := map[string]string{}
		for _, r := range replicas {
			assignment[r] = helix.StateOnline
		}
		is.Partitions[seg.Name()] = assignment
		return true
	})
	if err != nil {
		return err
	}
	c.helixCtl.Kick()
	return nil
}

// refreshSegment bounces a replaced segment OFFLINE→ONLINE so servers
// reload the new blob.
func (c *Controller) refreshSegment(resource, segName string) error {
	var replicas map[string]string
	err := c.helixAdmin().UpdateIdealState(resource, func(is *helix.IdealState) bool {
		replicas = is.Partitions[segName]
		for inst := range replicas {
			replicas[inst] = helix.StateOffline
		}
		return true
	})
	if err != nil {
		return err
	}
	c.helixCtl.Kick()
	// Wait for servers to unload before flipping back online.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ev, err := c.helixAdmin().ExternalViewOf(resource)
		if err != nil {
			return err
		}
		if len(ev.InstancesFor(segName, helix.StateOnline)) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	err = c.helixAdmin().UpdateIdealState(resource, func(is *helix.IdealState) bool {
		for inst := range is.Partitions[segName] {
			is.Partitions[segName][inst] = helix.StateOnline
		}
		return true
	})
	if err != nil {
		return err
	}
	c.helixCtl.Kick()
	return nil
}

// DeleteSegment drops one segment from a table.
func (c *Controller) DeleteSegment(resource, segName string) error {
	if !c.IsLeader() {
		return ErrNotLeader
	}
	err := c.helixAdmin().UpdateIdealState(resource, func(is *helix.IdealState) bool {
		replicas, ok := is.Partitions[segName]
		if !ok {
			return false
		}
		for inst := range replicas {
			replicas[inst] = helix.StateDropped
		}
		return true
	})
	if err != nil {
		return err
	}
	c.helixCtl.Kick()
	data, _, err := c.session().Get(c.segmentMetaPath(resource, segName))
	if err == nil {
		if meta, err := table.UnmarshalSegmentMeta(data); err == nil && meta.ObjectKey != "" {
			_ = c.objects.Delete(meta.ObjectKey)
		}
	}
	if err := c.session().Delete(c.segmentMetaPath(resource, segName), -1); err != nil && err != zkmeta.ErrNoNode {
		return err
	}
	// Remove from ideal state after servers drop.
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			ev, err := c.helixAdmin().ExternalViewOf(resource)
			if err != nil || len(ev.Partitions[segName]) == 0 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		_ = c.helixAdmin().UpdateIdealState(resource, func(is *helix.IdealState) bool {
			if _, ok := is.Partitions[segName]; !ok {
				return false
			}
			delete(is.Partitions, segName)
			return true
		})
		c.helixCtl.Kick()
	}()
	return nil
}

// eligibleServers returns server instances allowed to host the table,
// honouring its tenant tag.
func (c *Controller) eligibleServers(cfg *table.Config) ([]string, error) {
	configs, err := c.helixAdmin().Instances()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ic := range configs {
		if !ic.HasTag("server") {
			continue
		}
		if cfg.ServerTenant != "" && !ic.HasTag(cfg.ServerTenant) {
			continue
		}
		out = append(out, ic.Instance)
	}
	sort.Strings(out)
	return out, nil
}

// pickReplicas chooses `replicas` servers balancing the per-server segment
// counts of the ideal state; `salt` rotates ties so equal-load servers share
// work.
func pickReplicas(servers []string, is *helix.IdealState, replicas, salt int) []string {
	if replicas > len(servers) {
		replicas = len(servers)
	}
	load := map[string]int{}
	for _, assignment := range is.Partitions {
		for inst := range assignment {
			load[inst]++
		}
	}
	ranked := append([]string(nil), servers...)
	sort.SliceStable(ranked, func(i, j int) bool {
		li, lj := load[ranked[i]], load[ranked[j]]
		if li != lj {
			return li < lj
		}
		// Tie-break by rotating with the salt.
		ii := (indexOf(servers, ranked[i]) + salt) % len(servers)
		jj := (indexOf(servers, ranked[j]) + salt) % len(servers)
		return ii < jj
	})
	return ranked[:replicas]
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// partitionOfSegment derives the partition id of an uploaded segment from
// its partition-column values; -1 if the segment spans partitions.
func partitionOfSegment(seg *segment.Segment, cfg *table.Config) int {
	col := seg.Column(cfg.PartitionColumn)
	if col == nil || !col.HasDictionary() {
		return -1
	}
	partition := -1
	for id := 0; id < col.Cardinality(); id++ {
		p := stream.PartitionFor(valueKey(col.Value(id)), cfg.NumPartitions)
		if partition == -1 {
			partition = p
		} else if partition != p {
			return -1
		}
	}
	return partition
}

// valueKey renders a partition-column value exactly as producers key their
// stream messages.
func valueKey(v any) []byte {
	return []byte(fmt.Sprint(v))
}

// ReadTableConfig loads a table config from the property store; shared with
// servers and brokers.
func ReadTableConfig(sess zkmeta.Client, cluster, resource string) (*table.Config, error) {
	data, _, err := sess.Get(helix.PropertyStorePath(cluster, "CONFIGS", "TABLE", resource))
	if err != nil {
		return nil, err
	}
	return unmarshalTableConfig(data)
}

// ReadSegmentMetas loads all segment metadata of a resource.
func ReadSegmentMetas(sess zkmeta.Client, cluster, resource string) ([]*table.SegmentMeta, error) {
	base := helix.PropertyStorePath(cluster, "SEGMENTS", resource)
	names, err := sess.Children(base)
	if err != nil {
		if err == zkmeta.ErrNoNode {
			return nil, nil
		}
		return nil, err
	}
	out := make([]*table.SegmentMeta, 0, len(names))
	for _, n := range names {
		data, _, err := sess.Get(base + "/" + n)
		if err != nil {
			continue
		}
		m, err := table.UnmarshalSegmentMeta(data)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// ReadSegmentMeta loads one segment's metadata.
func ReadSegmentMeta(sess zkmeta.Client, cluster, resource, segName string) (*table.SegmentMeta, error) {
	data, _, err := sess.Get(helix.PropertyStorePath(cluster, "SEGMENTS", resource) + "/" + segName)
	if err != nil {
		return nil, err
	}
	return table.UnmarshalSegmentMeta(data)
}

// retentionLoop periodically runs leader maintenance: retention GC (paper
// 3.2) and replica repair after server loss (paper 3.4).
func (c *Controller) retentionLoop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.RetentionInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			if c.IsLeader() {
				c.RunRetention()
				c.RunReplicaRepair()
			}
		}
	}
}

// RunRetention performs one retention sweep across all tables. The horizon
// is data-driven: segments whose MaxTime falls more than RetentionUnits
// behind the table's newest data expire.
func (c *Controller) RunRetention() {
	resources, err := c.Tables()
	if err != nil {
		return
	}
	for _, resource := range resources {
		cfg, err := c.TableConfig(resource)
		if err != nil || cfg.RetentionUnits <= 0 {
			continue
		}
		metas, err := c.SegmentMetas(resource)
		if err != nil {
			continue
		}
		var newest int64
		hasData := false
		for _, m := range metas {
			if m.Status == table.StatusDone && m.MaxTime > newest {
				newest = m.MaxTime
				hasData = true
			}
		}
		if !hasData {
			continue
		}
		horizon := newest - cfg.RetentionUnits
		for _, m := range metas {
			if m.Status == table.StatusDone && m.MaxTime < horizon {
				_ = c.DeleteSegment(resource, m.Name)
			}
		}
	}
}

var _ transport.ControllerClient = (*Controller)(nil)
