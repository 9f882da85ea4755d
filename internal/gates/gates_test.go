package gates

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/mle"
)

// tableDigests hashes every compiled table of c: each selector under its
// name, each wire column as wN, and the copy permutation as sigma.
func tableDigests(c *Circuit) map[string]string {
	hashTable := func(t *mle.Table) string {
		d := sha256.New()
		for i := range t.Evals {
			b := t.Evals[i].Bytes()
			d.Write(b[:])
		}
		return hex.EncodeToString(d.Sum(nil))
	}
	out := map[string]string{}
	for name, t := range c.Selectors {
		out[name] = hashTable(t)
	}
	for j, t := range c.Wires {
		out[fmt.Sprintf("w%d", j+1)] = hashTable(t)
	}
	d := sha256.New()
	var b [8]byte
	for _, col := range c.Perm.Sigma {
		for _, v := range col {
			binary.BigEndian.PutUint64(b[:], uint64(v))
			d.Write(b[:])
		}
	}
	out["sigma"] = hex.EncodeToString(d.Sum(nil))
	return out
}

func checkTablePins(t *testing.T, c *Circuit, want map[string]string) {
	t.Helper()
	if !c.Satisfied() || !c.CopySatisfied() {
		t.Fatal("pinned circuit unsatisfied")
	}
	got := tableDigests(c)
	if len(got) != len(want) {
		t.Fatalf("%d tables, want %d", len(got), len(want))
	}
	for name, sha := range want {
		if got[name] != sha {
			t.Errorf("table %s: sha256 %s, want %s", name, got[name], sha)
		}
	}
}

// TestVanillaTablePins builds one circuit with every VanillaBuilder gate form
// and pins the bytes of every compiled table: circuit IDs and proofs are
// functions of these bytes.
func TestVanillaTablePins(t *testing.T) {
	b := NewVanillaBuilder()
	x := b.NewVariable(ff.NewElement(3))
	y := b.NewVariable(ff.NewElement(5))
	s := b.AddConst(b.Add(b.Mul(x, y), x), ff.NewElement(7)) // 25
	d := b.ScaleConst(s, ff.NewElement(3))                   // 75
	b.AssertConst(d, ff.NewElement(75))
	y2 := b.NewVariable(ff.NewElement(5))
	b.AssertEqual(y, y2)
	_ = b.Mul(y2, d)
	if v, want := b.Value(d), ff.NewElement(75); !v.Equal(&want) || b.GateCount() != 7 {
		t.Fatalf("value %s, %d gates", v.String(), b.GateCount())
	}
	c, err := b.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	checkTablePins(t, c, map[string]string{
		"qC":    "d4d2b287e194e141e009d700235a511f03db8a4f372ce030d268be7aae0b6adb",
		"qL":    "cd4a40bac3e3b77ce169485156ff8687dcda5d635cc320e5fccdc2e586850f21",
		"qM":    "19cfca117d0846ac84fc50e492c3f5e22b31ff76b00906e45396726336a8dca9",
		"qO":    "4ea05f475a088a7ac48ff1976dca65906ba037e2c812dcc143e36d6aafdcc2ae",
		"qR":    "4c18bf940654fe9feef5e2803431d92a67d0f02a0f3e0ffbd7019e08a931271c",
		"sigma": "bc16261916983c1d5a809a055f1f66ba68815330a76d7947f37f8cbedd86aaa6",
		"w1":    "6d7c559d3d83773c1c7429f3f870f5b00ffafef2514dcd849780cb36d742f9c3",
		"w2":    "6152bd9f08a06a820eec77a70ac9714c64c266e383451367fccd81ed4a5c64ad",
		"w3":    "5a0c12f5f7f95622e54b937dd45c9991117ea37cd0c048f82b830514b9dceb06",
	})
}

// TestJellyfishTablePins is TestVanillaTablePins for JellyfishBuilder,
// LinearCombination at every input count included.
func TestJellyfishTablePins(t *testing.T) {
	b := NewJellyfishBuilder()
	var v [4]Variable
	var ks [4]ff.Element
	for i := range v {
		v[i] = b.NewVariable(ff.NewElement(uint64(2*i + 2)))
		ks[i] = ff.NewElement(uint64(i + 1))
	}
	l1 := b.LinearCombination(v[:1], ks[:1], ff.NewElement(4))
	l2 := b.LinearCombination(v[:2], ks[:2], ff.Zero())
	l3 := b.LinearCombination(v[:3], ks[:3], ff.NewElement(1))
	l4 := b.LinearCombination(v[:], ks[:], ff.Zero())
	a := b.Mul(b.Add(l1, l3), l2)
	dm := b.DoubleMulAdd(a, l4, v[1], v[2])
	p := b.Power5(dm)
	r := b.Power5Round([4]Variable{p, l1, v[0], l4}, ks, ff.NewElement(5))
	e := b.EccProduct(v[0], v[1], v[2], r)
	b.AssertConst(e, b.Value(e))
	if b.GateCount() != 11 {
		t.Fatalf("%d gates, want 11", b.GateCount())
	}
	c, err := b.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	checkTablePins(t, c, map[string]string{
		"q1":    "5328c7d018e1c2d93c3450c4a5a3a76285346bcb463215ef15c6fbb148e4486e",
		"q2":    "b845d12fe8f9d0d9508aa009efe8916b966a317419926143d29c2672e1de28dd",
		"q3":    "e6acd6a9cf89109687713d2c4e51f2416f66e72bf22111dc1eaf5ec2b52f27f4",
		"q4":    "44b21f36dace4b7d7938df5b95eb695ed92d853946251666896aa3e968a223d5",
		"qC":    "a2c5048280769ecde7d89449d3d3befde552a9f485b76d0ef18ee6c10d60632a",
		"qH1":   "23e0aec80f783fc66b71596a659b5ae36a303e3d4641c89d58f9e7ee8d0210b4",
		"qH2":   "e93b1b49ec554af6ad429ecae9ec869fa612ceda96fb57559570a8572deb43d6",
		"qH3":   "083a911e3fc27348017da5514760c71395678bca815af1f945901b8917b47e24",
		"qH4":   "3c1c158e0ed06600905941e9d0da018f1a2f4d47c8819b608644a9a17ede1c01",
		"qM1":   "192018c12e327d34cc83f29e683af491cc5d0aad1a75d7304b153a40145512dc",
		"qM2":   "16bbbae41eca93bd4e2fc56564e6e107c63651a364d5c93594abe2fcd0d3323a",
		"qO":    "351769578b1e61571eaf90381f3f57319066bc2d886dc13ba66f0e276e07cc0a",
		"qecc":  "7ab97346131734f6ad0d50f8442f65ac96f7c73348c7395f02df27dbb92fd566",
		"sigma": "21dda77015790d39c0d065bbb842566ce0250a17c96150179d6f2d41b6b5c5e9",
		"w1":    "cbd3b2d75c91f5e0574342a025ce95a0a83a3dddcf4b82babf083c2ef91a45f2",
		"w2":    "bda07d854a84d1e81b0bd3ea34dc8312aaf7714dbadbba37dcb42dce2905707b",
		"w3":    "a890194e36494889797434964db2366e01526a028bc54f2a99898301cde7d251",
		"w4":    "8c49ec40428364e3eecb14861e3ecc10237c4067dfe4934f5f66c034f46407df",
		"w5":    "cb961e29fe4303a17487b0b0072d1d3bb75609cddac665d3159dfabfb701d61e",
	})
}

func TestVanillaArithmetic(t *testing.T) {
	b := NewVanillaBuilder()
	x := b.NewVariable(ff.NewElement(3))
	// x³ + x + 5 = 35
	x2 := b.Mul(x, x)
	x3 := b.Mul(x2, x)
	s := b.Add(x3, x)
	out := b.AddConst(s, ff.NewElement(5))
	b.AssertConst(out, ff.NewElement(35))

	c, err := b.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Satisfied() {
		t.Fatal("satisfied circuit reports unsatisfied")
	}
	if !c.CopySatisfied() {
		t.Fatal("copy constraints should hold")
	}
	if c.GateCount != 5 {
		t.Fatalf("gate count = %d, want 5", c.GateCount)
	}
}

func TestVanillaUnsatisfied(t *testing.T) {
	b := NewVanillaBuilder()
	x := b.NewVariable(ff.NewElement(4)) // wrong witness
	x2 := b.Mul(x, x)
	x3 := b.Mul(x2, x)
	s := b.Add(x3, x)
	out := b.AddConst(s, ff.NewElement(5))
	b.AssertConst(out, ff.NewElement(35))
	c, err := b.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Satisfied() {
		t.Fatal("unsatisfied circuit reports satisfied")
	}
}

func TestVanillaCopyViolationDetected(t *testing.T) {
	b := NewVanillaBuilder()
	x := b.NewVariable(ff.NewElement(7))
	y := b.Mul(x, x)
	_ = b.Add(y, x)
	c, err := b.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.CopySatisfied() {
		t.Fatal("honest wiring should satisfy copies")
	}
	// Corrupt one wired slot.
	c.Wires[0].Evals[1] = ff.NewElement(999)
	if c.CopySatisfied() {
		t.Fatal("copy violation not detected")
	}
}

func TestVanillaAssertEqual(t *testing.T) {
	b := NewVanillaBuilder()
	x := b.NewVariable(ff.NewElement(9))
	y := b.NewVariable(ff.NewElement(9))
	b.AssertEqual(x, y)
	c, err := b.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Satisfied() {
		t.Fatal("equal values should satisfy AssertEqual")
	}
}

func TestVanillaCapacity(t *testing.T) {
	b := NewVanillaBuilder()
	x := b.NewVariable(ff.NewElement(1))
	for i := 0; i < 5; i++ {
		x = b.Add(x, x)
	}
	if _, err := b.Build(2); err == nil {
		t.Fatal("overfull circuit accepted")
	}
}

func TestJellyfishPower5(t *testing.T) {
	b := NewJellyfishBuilder()
	x := b.NewVariable(ff.NewElement(2))
	y := b.Power5(x)
	want := ff.NewElement(32)
	got := b.Value(y)
	if !got.Equal(&want) {
		t.Fatal("Power5 value wrong")
	}
	b.AssertConst(y, want)
	c, err := b.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Satisfied() {
		t.Fatal("power-5 circuit unsatisfied")
	}
	if !c.CopySatisfied() {
		t.Fatal("copies should hold")
	}
}

func TestJellyfishDoubleMulAdd(t *testing.T) {
	b := NewJellyfishBuilder()
	a := b.NewVariable(ff.NewElement(2))
	c := b.NewVariable(ff.NewElement(3))
	d := b.NewVariable(ff.NewElement(5))
	e := b.NewVariable(ff.NewElement(7))
	out := b.DoubleMulAdd(a, c, d, e) // 6 + 35 = 41
	want := ff.NewElement(41)
	got := b.Value(out)
	if !got.Equal(&want) {
		t.Fatal("DoubleMulAdd value wrong")
	}
	circ, err := b.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if !circ.Satisfied() {
		t.Fatal("gate unsatisfied")
	}
}

func TestJellyfishEccProduct(t *testing.T) {
	b := NewJellyfishBuilder()
	vs := make([]Variable, 4)
	for i := range vs {
		vs[i] = b.NewVariable(ff.NewElement(uint64(i + 2)))
	}
	out := b.EccProduct(vs[0], vs[1], vs[2], vs[3]) // 2·3·4·5 = 120
	want := ff.NewElement(120)
	got := b.Value(out)
	if !got.Equal(&want) {
		t.Fatal("EccProduct value wrong")
	}
	circ, err := b.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if !circ.Satisfied() {
		t.Fatal("ecc gate unsatisfied")
	}
}

func TestJellyfishPower5Round(t *testing.T) {
	b := NewJellyfishBuilder()
	var ins [4]Variable
	var coeffs [4]ff.Element
	for i := 0; i < 4; i++ {
		ins[i] = b.NewVariable(ff.NewElement(uint64(i + 1)))
		coeffs[i] = ff.NewElement(uint64(2*i + 1))
	}
	k := ff.NewElement(11)
	out := b.Power5Round(ins, coeffs, k)
	// 1·1 + 3·32 + 5·243 + 7·1024 + 11 = 1 + 96 + 1215 + 7168 + 11 = 8491
	want := ff.NewElement(8491)
	got := b.Value(out)
	if !got.Equal(&want) {
		t.Fatalf("Power5Round = %s, want 8491", got.String())
	}
	circ, err := b.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if !circ.Satisfied() {
		t.Fatal("round gate unsatisfied")
	}
}

func TestJellyfishLinearCombination(t *testing.T) {
	b := NewJellyfishBuilder()
	x := b.NewVariable(ff.NewElement(10))
	y := b.NewVariable(ff.NewElement(20))
	out := b.LinearCombination(
		[]Variable{x, y},
		[]ff.Element{ff.NewElement(3), ff.NewElement(4)},
		ff.NewElement(5),
	) // 30 + 80 + 5 = 115
	want := ff.NewElement(115)
	got := b.Value(out)
	if !got.Equal(&want) {
		t.Fatal("LinearCombination value wrong")
	}
	circ, err := b.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if !circ.Satisfied() || !circ.CopySatisfied() {
		t.Fatal("linear gate circuit unsatisfied")
	}
}

func TestJellyfishSharedVariableWiring(t *testing.T) {
	// The same variable used across gates must produce a multi-slot cycle.
	b := NewJellyfishBuilder()
	x := b.NewVariable(ff.NewElement(6))
	y := b.Mul(x, x)
	z := b.Add(y, x)
	_ = b.Power5(z)
	c, err := b.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Satisfied() || !c.CopySatisfied() {
		t.Fatal("shared variable circuit broken")
	}
	// x appears in 3 slots; corrupting one must break copies.
	c.Wires[0].Evals[0] = ff.NewElement(123456)
	if c.CopySatisfied() {
		t.Fatal("corruption of shared variable undetected")
	}
}
