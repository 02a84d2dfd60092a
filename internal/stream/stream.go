// Package stream is the Kafka substrate: partitioned append-only event logs
// with monotonically increasing offsets, key-hash partitioning compatible
// with the Kafka producer's murmur2 partitioner (paper section 4.4: "Pinot
// includes a partition function that matches the behavior of the Kafka
// partition function"), consumer polling by offset, and count-based
// retention trimming (paper 3.3.6: "Kafka retains data only for a certain
// period of time").
package stream

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by stream operations.
var (
	ErrTopicExists    = errors.New("stream: topic already exists")
	ErrNoTopic        = errors.New("stream: topic does not exist")
	ErrBadPartition   = errors.New("stream: partition out of range")
	ErrOffsetTooEarly = errors.New("stream: offset below retention horizon")
)

// Message is one event in a partition.
type Message struct {
	Offset int64
	Key    []byte
	Value  []byte
}

// Cluster holds topics.
type Cluster struct {
	mu     sync.RWMutex
	topics map[string]*Topic
}

// NewCluster returns an empty stream cluster.
func NewCluster() *Cluster {
	return &Cluster{topics: map[string]*Topic{}}
}

// CreateTopic adds a topic with a fixed partition count.
func (c *Cluster) CreateTopic(name string, partitions int) (*Topic, error) {
	if partitions <= 0 {
		return nil, fmt.Errorf("stream: topic %q needs at least 1 partition", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.topics[name]; ok {
		return nil, ErrTopicExists
	}
	t := &Topic{name: name, partitions: make([]*partition, partitions)}
	for i := range t.partitions {
		t.partitions[i] = &partition{}
	}
	c.topics[name] = t
	return t, nil
}

// Topic returns an existing topic.
func (c *Cluster) Topic(name string) (*Topic, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.topics[name]
	if !ok {
		return nil, ErrNoTopic
	}
	return t, nil
}

// Topic is a named, partitioned log.
type Topic struct {
	name       string
	partitions []*partition
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// NumPartitions returns the fixed partition count.
func (t *Topic) NumPartitions() int { return len(t.partitions) }

// Produce appends a message, picking the partition from the key hash.
func (t *Topic) Produce(key, value []byte) (partitionID int, offset int64) {
	p := PartitionFor(key, len(t.partitions))
	return p, t.partitions[p].append(key, value)
}

// ProduceTo appends a message to an explicit partition.
func (t *Topic) ProduceTo(partitionID int, key, value []byte) (int64, error) {
	if partitionID < 0 || partitionID >= len(t.partitions) {
		return 0, ErrBadPartition
	}
	return t.partitions[partitionID].append(key, value), nil
}

// Fetch returns up to max messages from a partition starting at offset, fewer
// when they would cross a chunk of the log: the slice is the log's own and
// read-only. Fetching at the log end returns an empty slice; fetching below
// the retention horizon fails.
func (t *Topic) Fetch(partitionID int, offset int64, max int) ([]Message, error) {
	if partitionID < 0 || partitionID >= len(t.partitions) {
		return nil, ErrBadPartition
	}
	return t.partitions[partitionID].fetch(offset, max)
}

// EarliestOffset returns the oldest retained offset of a partition.
func (t *Topic) EarliestOffset(partitionID int) (int64, error) {
	if partitionID < 0 || partitionID >= len(t.partitions) {
		return 0, ErrBadPartition
	}
	p := t.partitions[partitionID]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base, nil
}

// LatestOffset returns the next offset to be assigned in a partition.
func (t *Topic) LatestOffset(partitionID int) (int64, error) {
	if partitionID < 0 || partitionID >= len(t.partitions) {
		return 0, ErrBadPartition
	}
	p := t.partitions[partitionID]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.end, nil
}

// TrimBefore discards messages below offset in every partition, modelling
// retention expiry.
func (t *Topic) TrimBefore(offset int64) {
	for _, p := range t.partitions {
		p.trimBefore(offset)
	}
}

// StallPartition marks a partition stalled: fetches return no messages (and
// no error) until ResumePartition, so consumers stop making progress without
// seeing a failure — the chaos hook modelling a stuck upstream partition or
// a broker that retains data but stops serving it.
func (t *Topic) StallPartition(partitionID int) error {
	if partitionID < 0 || partitionID >= len(t.partitions) {
		return ErrBadPartition
	}
	p := t.partitions[partitionID]
	p.mu.Lock()
	p.stalled = true
	p.mu.Unlock()
	return nil
}

// ResumePartition clears a stall; buffered messages become fetchable again.
func (t *Topic) ResumePartition(partitionID int) error {
	if partitionID < 0 || partitionID >= len(t.partitions) {
		return ErrBadPartition
	}
	p := t.partitions[partitionID]
	p.mu.Lock()
	p.stalled = false
	p.mu.Unlock()
	return nil
}

// logChunk is how many messages one chunk of a partition log holds: 292 of
// them (56 bytes each) and the allocator's 8-byte header for pointer-bearing
// objects fill a 16 KiB size class; 256 would spill into it and waste 2 KiB.
const logChunk = 292

// partition is an append-only log kept in chunks of logChunk messages. A
// chunk is allocated once at full capacity and only ever appended to, so a
// fetch hands out a sub-slice of it instead of a copy, and retention drops
// whole chunks.
type partition struct {
	mu      sync.Mutex
	base    int64       // oldest retained offset
	first   int64       // offset of chunks[0][0]; at most base
	end     int64       // next offset to assign
	chunks  [][]Message // chunk k holds offsets from first + k*logChunk
	stalled bool
}

func (p *partition) append(key, value []byte) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := int((p.end - p.first) / logChunk)
	if k == len(p.chunks) {
		p.chunks = append(p.chunks, make([]Message, 0, logChunk))
	}
	off := p.end
	p.chunks[k] = append(p.chunks[k], Message{
		Offset: off,
		Key:    append([]byte(nil), key...),
		Value:  append([]byte(nil), value...),
	})
	p.end++
	return off
}

func (p *partition) fetch(offset int64, max int) ([]Message, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stalled {
		return nil, nil
	}
	if offset < p.base {
		return nil, ErrOffsetTooEarly
	}
	if offset >= p.end || max <= 0 {
		return nil, nil
	}
	chunk := p.chunks[(offset-p.first)/logChunk]
	i := int((offset - p.first) % logChunk)
	j := min(len(chunk), i+max)
	return chunk[i:j:j], nil
}

func (p *partition) trimBefore(offset int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if offset <= p.base {
		return
	}
	if offset >= p.end {
		p.base, p.first, p.chunks = p.end, p.end, nil
		return
	}
	p.base = offset
	if drop := (offset - p.first) / logChunk; drop > 0 {
		p.chunks = append([][]Message(nil), p.chunks[drop:]...)
		p.first += drop * logChunk
	}
}

// Consumer tracks a read position in one partition, the replica-side
// consuming abstraction used by realtime segments.
type Consumer struct {
	topic     *Topic
	partition int
	offset    int64
}

// NewConsumer starts a consumer at the given offset of a partition.
func NewConsumer(t *Topic, partitionID int, startOffset int64) (*Consumer, error) {
	if partitionID < 0 || partitionID >= t.NumPartitions() {
		return nil, ErrBadPartition
	}
	return &Consumer{topic: t, partition: partitionID, offset: startOffset}, nil
}

// Offset returns the next offset the consumer will read.
func (c *Consumer) Offset() int64 { return c.offset }

// Partition returns the consumer's partition.
func (c *Consumer) Partition() int { return c.partition }

// Poll reads up to max messages and advances the consumer.
func (c *Consumer) Poll(max int) ([]Message, error) {
	msgs, err := c.topic.Fetch(c.partition, c.offset, max)
	if err != nil {
		return nil, err
	}
	if len(msgs) > 0 {
		c.offset = msgs[len(msgs)-1].Offset + 1
	}
	return msgs, nil
}

// PartitionFor maps a key to a partition using Kafka's murmur2-based
// partitioner, so offline data partitioned with the same function lines up
// with realtime stream partitions.
func PartitionFor(key []byte, numPartitions int) int {
	h := murmur2(key) & 0x7fffffff
	return int(h % uint32(numPartitions))
}

// murmur2 is the 32-bit MurmurHash2 used by the Kafka Java client
// (seed 0x9747b28c).
func murmur2(data []byte) uint32 {
	const (
		seed uint32 = 0x9747b28c
		m    uint32 = 0x5bd1e995
		r           = 24
	)
	length := uint32(len(data))
	h := seed ^ length
	i := 0
	for n := len(data) / 4; n > 0; n-- {
		k := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
		k *= m
		k ^= k >> r
		k *= m
		h *= m
		h ^= k
		i += 4
	}
	switch len(data) & 3 {
	case 3:
		h ^= uint32(data[i+2]) << 16
		fallthrough
	case 2:
		h ^= uint32(data[i+1]) << 8
		fallthrough
	case 1:
		h ^= uint32(data[i])
		h *= m
	}
	h ^= h >> 13
	h *= m
	h ^= h >> 15
	return h
}
