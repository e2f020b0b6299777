package packet

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"dejavu/internal/nsh"
)

// bitwiseCRC32 is the table-free reflected IEEE CRC-32 the five-tuple
// hash used before it moved to the stdlib table implementation. It is
// kept here as the differential oracle: the hash values feed LB
// backend selection, session keys and the VXLAN source port, so the
// table CRC must reproduce it bit for bit.
func bitwiseCRC32(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// TestCRC32CheckValue pins the standard CRC-32 check value for both the
// oracle and the table implementation Hash uses.
func TestCRC32CheckValue(t *testing.T) {
	const want = 0xCBF43926
	check := []byte("123456789")
	if got := bitwiseCRC32(check); got != want {
		t.Errorf("bitwise CRC-32(%q) = %#08x, want %#08x", check, got, want)
	}
	if got := crc32.ChecksumIEEE(check); got != want {
		t.Errorf("table CRC-32(%q) = %#08x, want %#08x", check, got, want)
	}
}

// TestFiveTupleHashGolden pins FiveTuple.Hash on recorded vectors: any
// change here changes which LB backend every existing flow lands on.
func TestFiveTupleHashGolden(t *testing.T) {
	for _, c := range []struct {
		ft   FiveTuple
		want uint32
	}{
		{FiveTuple{}, 0x0F744682},
		{FiveTuple{Src: IP4{10, 0, 0, 1}, Dst: IP4{203, 0, 113, 80}, Proto: ProtoTCP, SrcPort: 12345, DstPort: 443}, 0xB7938D3C},
		{FiveTuple{Src: IP4{192, 168, 1, 1}, Dst: IP4{10, 0, 2, 5}, Proto: ProtoUDP, SrcPort: 53, DstPort: 4789}, 0xAC8620BB},
		{FiveTuple{Src: IP4{172, 16, 0, 9}, Dst: IP4{172, 16, 0, 1}, Proto: ProtoICMP}, 0xFEC0ED6B},
		{FiveTuple{Src: IP4{255, 255, 255, 255}, Dst: IP4{255, 255, 255, 255}, Proto: 255, SrcPort: 65535, DstPort: 65535}, 0xF2D6F3C1},
		{FiveTuple{Src: IP4{198, 51, 100, 7}, Dst: IP4{203, 0, 113, 80}, Proto: ProtoTCP, SrcPort: 40000, DstPort: 80}, 0xCC340EA1},
	} {
		if got := c.ft.Hash(); got != c.want {
			t.Errorf("Hash(%+v) = %#08x, want %#08x", c.ft, got, c.want)
		}
	}
}

// TestFiveTupleHashMatchesBitwiseOracle compares Hash against the
// bitwise CRC over a million random 13-byte keys.
func TestFiveTupleHashMatchesBitwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var key [13]byte
	for i := 0; i < 1_000_000; i++ {
		rng.Read(key[:])
		ft := FiveTuple{
			Proto:   key[8],
			SrcPort: binary.BigEndian.Uint16(key[9:11]),
			DstPort: binary.BigEndian.Uint16(key[11:13]),
		}
		copy(ft.Src[:], key[0:4])
		copy(ft.Dst[:], key[4:8])
		if got, want := ft.Hash(), bitwiseCRC32(key[:]); got != want {
			t.Fatalf("key %x: Hash = %#08x, bitwise oracle = %#08x", key, got, want)
		}
	}
}

// TestFiveTupleHashAllocBudget holds the flow hash to zero allocations.
func TestFiveTupleHashAllocBudget(t *testing.T) {
	ft := FiveTuple{Src: ipA, Dst: ipB, Proto: ProtoTCP, SrcPort: 100, DstPort: 200}
	if n := testing.AllocsPerRun(1000, func() { hashSink += ft.Hash() }); n != 0 {
		t.Errorf("FiveTuple.Hash allocates %.1f times per call, want 0", n)
	}
}

// hashSink keeps the benchmarked hash calls from being optimized away.
var hashSink uint32

func BenchmarkFiveTupleHash(b *testing.B) {
	ft := FiveTuple{Src: ipA, Dst: ipB, Proto: ProtoTCP, SrcPort: 100, DstPort: 200}
	if n := testing.AllocsPerRun(100, func() { hashSink += ft.Hash() }); n != 0 {
		b.Fatalf("FiveTuple.Hash allocates %.1f times per call, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.SrcPort = uint16(i)
		hashSink += ft.Hash()
	}
}

// TestParseClearsPreviousSFC reuses one vector for a tagged frame and
// then an untagged one: the second parse must not inherit the first
// packet's service path, or the framework would take it for an already
// classified packet.
func TestParseClearsPreviousSFC(t *testing.T) {
	tagged := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2})
	tagged.PushSFC(nsh.New(7, 3))
	taggedWire, err := tagged.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2})
	plainWire, err := plain.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	var v Parsed
	if err := v.Parse(taggedWire); err != nil {
		t.Fatal(err)
	}
	if v.SFC.ServicePathID != 7 {
		t.Fatalf("tagged parse: path %d, want 7", v.SFC.ServicePathID)
	}
	if err := v.Parse(plainWire); err != nil {
		t.Fatal(err)
	}
	if v.Valid(HdrSFC) || v.SFC != (nsh.Header{}) {
		t.Errorf("untagged parse into a reused vector kept SFC state: %s", v.SFC.String())
	}
}
