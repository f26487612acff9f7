package videocodec

import (
	"bytes"
	"testing"

	"cloudfog/internal/render"
	"cloudfog/internal/virtualworld"
)

// testFrames renders a deterministic moving-avatar sequence at the given
// quality level — shared input for the equivalence and allocation tests.
func testFrames(t testing.TB, level, n int) []*render.Frame {
	t.Helper()
	w := virtualworld.New(400, 400)
	w.SpawnAvatar(1, 100, 100)
	r := render.NewRenderer(render.ResolutionForLevel(level))
	frames := make([]*render.Frame, 0, n)
	for i := 0; i < n; i++ {
		w.Step([]virtualworld.Action{{Player: 1, Kind: virtualworld.ActMove, TargetX: 300, TargetY: 300}})
		s := w.Snapshot()
		frames = append(frames, r.Render(s, render.ViewportFor(s, 1)))
	}
	return frames
}

// TestEncodeIntoMatchesEncode pins the reuse path to the allocating one:
// two encoders fed the same sequence must produce byte-identical streams.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	frames := testFrames(t, 3, 40) // 40 > GOP, so the sequence spans an I-frame boundary
	a := NewEncoder(600)
	b := NewEncoder(600)
	var ef EncodedFrame
	for i, f := range frames {
		want := a.Encode(f)
		b.EncodeInto(f, &ef)
		if want.Type != ef.Type || want.Quant != ef.Quant || want.Tick != ef.Tick ||
			want.Width != ef.Width || want.Height != ef.Height {
			t.Fatalf("frame %d: header mismatch: %+v vs %+v", i, want, ef)
		}
		if !bytes.Equal(want.Data, ef.Data) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(want.Data), len(ef.Data))
		}
	}
}

// TestDecodeIntoMatchesDecode pins the aliasing decode path to the copying
// one across I- and P-frames.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	frames := testFrames(t, 3, 40)
	enc := NewEncoder(600)
	var da, db Decoder
	var out render.Frame
	for i, f := range frames {
		ef := enc.Encode(f)
		want, err := da.Decode(ef)
		if err != nil {
			t.Fatalf("frame %d: Decode: %v", i, err)
		}
		if err := db.DecodeInto(ef, &out); err != nil {
			t.Fatalf("frame %d: DecodeInto: %v", i, err)
		}
		if !want.Equal(&out) || want.Tick != out.Tick {
			t.Fatalf("frame %d: decoded frames differ", i)
		}
	}
}

// TestFrameWireRoundTripInto pins the alias-parsing wire path: AppendTo
// then UnmarshalFrameInto must reproduce the frame, with Data aliasing the
// input buffer (no copy).
func TestFrameWireRoundTripInto(t *testing.T) {
	frames := testFrames(t, 2, 3)
	enc := NewEncoder(400)
	src := enc.Encode(frames[1])
	buf := src.AppendTo(nil)
	if len(buf) != src.EncodedSize() {
		t.Fatalf("EncodedSize %d != marshaled length %d", src.EncodedSize(), len(buf))
	}
	var got EncodedFrame
	if err := UnmarshalFrameInto(buf, &got); err != nil {
		t.Fatalf("UnmarshalFrameInto: %v", err)
	}
	if got.Type != src.Type || got.Quant != src.Quant || got.Tick != src.Tick ||
		got.Width != src.Width || got.Height != src.Height || !bytes.Equal(got.Data, src.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, src)
	}
	if len(got.Data) > 0 && &got.Data[0] != &buf[frameHeaderBytes] {
		t.Fatal("UnmarshalFrameInto copied Data; it must alias buf")
	}
}

// TestEncodeIntoSteadyStateAllocs locks in the tentpole property: after
// warm-up, the render→encode hot path allocates nothing per frame.
func TestEncodeIntoSteadyStateAllocs(t *testing.T) {
	frames := testFrames(t, 3, 32)
	enc := NewEncoder(600)
	var ef EncodedFrame
	for _, f := range frames { // warm-up: grow scratch + Data to steady state
		enc.EncodeInto(f, &ef)
	}
	i := 0
	if n := testing.AllocsPerRun(64, func() {
		enc.EncodeInto(frames[i%len(frames)], &ef)
		i++
	}); n != 0 {
		t.Fatalf("EncodeInto allocates %.1f/op in steady state, want 0", n)
	}
}

// TestDecodeIntoSteadyStateAllocs: same property for the thin-client side,
// including the alias-parsing UnmarshalFrameInto step.
func TestDecodeIntoSteadyStateAllocs(t *testing.T) {
	frames := testFrames(t, 3, 32)
	enc := NewEncoder(600)
	wire := make([][]byte, len(frames))
	for i, f := range frames {
		wire[i] = enc.Encode(f).AppendTo(nil)
	}
	var dec Decoder
	var ef EncodedFrame
	var out render.Frame
	decodeOne := func(buf []byte) {
		if err := UnmarshalFrameInto(buf, &ef); err != nil {
			t.Fatalf("UnmarshalFrameInto: %v", err)
		}
		if err := dec.DecodeInto(&ef, &out); err != nil {
			t.Fatalf("DecodeInto: %v", err)
		}
	}
	for _, buf := range wire { // warm-up
		decodeOne(buf)
	}
	i := 0
	if n := testing.AllocsPerRun(64, func() {
		decodeOne(wire[i%len(wire)])
		i++
	}); n != 0 {
		t.Fatalf("decode path allocates %.1f/op in steady state, want 0", n)
	}
}

// BenchmarkEncodeInto720p is the reuse-path counterpart of
// BenchmarkEncode720p: same frames, zero allocations.
func BenchmarkEncodeInto720p(b *testing.B) {
	frames := benchFrames(b, 5)
	enc := NewEncoder(1800)
	var ef EncodedFrame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeInto(frames[i%len(frames)], &ef)
	}
}

// BenchmarkDecodeInto720p is the reuse-path counterpart of
// BenchmarkDecode720p.
func BenchmarkDecodeInto720p(b *testing.B) {
	frames := benchFrames(b, 5)
	enc := NewEncoder(1800)
	encoded := make([]*EncodedFrame, len(frames))
	for i, f := range frames {
		encoded[i] = enc.Encode(f)
	}
	var dec Decoder
	var out render.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeInto(encoded[i%len(encoded)], &out); err != nil {
			b.Fatal(err)
		}
	}
}
