package zkmeta

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"pinot/internal/wire"
)

// sampleZKMessages holds one message of each frame type, every field set.
var sampleZKMessages = map[uint8]any{
	frameRequest:  &wireReq{ID: 7, Op: opSet, Path: "/tables/t", Data: []byte("config"), Version: -1, WatchID: 3},
	frameResponse: &wireResp{ID: 7, Code: wireErrOther, Err: "boom", Data: []byte("data"), Version: 2, Bool: true, Names: []string{"a", "b"}, WatchID: 3},
	frameEvent:    &wireEvent{WatchID: 1 << 40, Type: EventChildrenChanged, Path: "/live"},
}

// encoderOf returns the encoder of a message.
func encoderOf(msg any) func(*wire.Encoder) {
	switch m := msg.(type) {
	case *wireReq:
		return m.encode
	case *wireResp:
		return m.encode
	default:
		return msg.(*wireEvent).encode
	}
}

// decodeZK decodes the payload of a frame type into its message.
func decodeZK(typ uint8, payload []byte) (any, error) {
	switch typ {
	case frameRequest:
		m := new(wireReq)
		return m, decode(payload, m.decode)
	case frameResponse:
		m := new(wireResp)
		return m, decode(payload, m.decode)
	default:
		m := new(wireEvent)
		return m, decode(payload, m.decode)
	}
}

func frameOf(t testing.TB, typ uint8, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := proto.Send(&buf, typ, encoderOf(msg)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocatedBy reports the fewest bytes f allocates over three runs, so an
// allocation elsewhere in the process during one run does not count.
func allocatedBy(f func()) uint64 {
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestZKGoldenFrames pins the bytes of one small frame of each type.
func TestZKGoldenFrames(t *testing.T) {
	for _, c := range []struct {
		typ  uint8
		msg  any
		want []byte
	}{
		{frameRequest, &wireReq{ID: 1, Op: opGet, Path: "/a", Version: -1}, []byte{
			'Z', 1, frameRequest, 0, 0, 0, 0, 8, 1, opGet, 2, '/', 'a', 0, 1, 0,
		}},
		{frameResponse, &wireResp{ID: 1, Code: 2, Data: []byte{9}, Names: []string{"x"}}, []byte{
			'Z', 1, frameResponse, 0, 0, 0, 0, 11, 1, 2, 0, 1, 9, 0, 0, 1, 1, 'x', 0,
		}},
		{frameEvent, &wireEvent{WatchID: 5, Type: EventDeleted, Path: "/a"}, []byte{
			'Z', 1, frameEvent, 0, 0, 0, 0, 5, 5, byte(EventDeleted), 2, '/', 'a',
		}},
	} {
		if got := frameOf(t, c.typ, c.msg); !bytes.Equal(got, c.want) {
			t.Errorf("frame type %d: bytes changed\n got %v\nwant %v", c.typ, got, c.want)
		}
	}
}

// FuzzZKFrame drives the metadata protocol's frame reader and message
// decoders over any bytes: they never panic; decoding a payload of n bytes
// allocates at most 64·n + 4096 whatever its counts claim; and whatever
// decodes re-encodes to an equal value.
func FuzzZKFrame(f *testing.F) {
	for typ, msg := range sampleZKMessages {
		valid := frameOf(f, typ, msg)
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{'Z', 1, frameRequest, 0, 0x04, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{'Z', 1, frameResponse, 0, 0, 0, 0, 6, 1, 0, 0, 0, 0, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr wire.FrameReader
		typ, payload, err := fr.Read(bytes.NewReader(data), &proto)
		if err != nil {
			return
		}
		var msg any
		if got, limit := allocatedBy(func() { msg, err = decodeZK(typ, payload) }), uint64(64*len(payload)+4096); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(payload), got, limit)
		}
		if err != nil {
			return
		}
		again, err := decodeZK(typ, frameOf(t, typ, msg)[wire.FrameHeaderSize:])
		if err != nil {
			t.Fatalf("re-encoded %T is refused: %v", msg, err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("re-encoding changed the message: %+v, then %+v", msg, again)
		}
	})
}
