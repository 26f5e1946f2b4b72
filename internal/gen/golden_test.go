package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"lotustc/internal/graph"
)

// csrHash is the hex SHA-256 of a graph's CSR: every offset as a
// little-endian int64, then every neighbour ID as a little-endian
// uint32.
func csrHash(g *graph.Graph) string {
	var b []byte
	for _, o := range g.Offsets() {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	for _, u := range g.RawNeighbors() {
		b = binary.LittleEndian.AppendUint32(b, u)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func rmatWith(scale uint, ef int, seed int64, edit func(*RMATParams)) func() *graph.Graph {
	return func() *graph.Graph {
		p := DefaultRMAT(scale, ef, seed)
		if edit != nil {
			edit(&p)
		}
		return RMAT(p)
	}
}

func chungLu(p ChungLuParams) func() *graph.Graph {
	return func() *graph.Graph { return ChungLu(p) }
}

type goldenRow struct {
	name  string
	build func() *graph.Graph
	want  string
}

// goldenGraphs pins the exact CSR of every generator spec the
// benchmark, the paper-experiment harness, the serve tests and the
// README use, plus the generators' edge cases. The hashes were taken
// from the serial generators (one draw at a time, binary-search
// Chung-Lu lookup, serial per-row sort); any change to the sampling
// or the build that moves a single neighbour fails here.
var goldenGraphs = []goldenRow{
	// R-MAT: Graph500 parameters unless edited.
	{"rmat/s1-ef16-seed7", rmatWith(1, 16, 7, nil), "359ad77c04cfcb7e9de6cca919c4924ff161d0dbdedbc0e20211649dc3b9ad99"},
	{"rmat/s4-ef8-seed-3", rmatWith(4, 8, -3, nil), "9a34001ead5473b794442fd513aa0d8792cb5273d4f92143747657298d559bc6"},
	{"rmat/s7-ef8-seed21", rmatWith(7, 8, 21, nil), "a8181c7e5aa6c3e0d86dd41f7102203d8ad04c5fd09a49abe7ea587e2e9c5205"},
	{"rmat/s8-ef8-seed0", rmatWith(8, 8, 0, nil), "c7b5c9bdf6a5324a4df45a393468174a71d50c1b02d520f5b8e0aee684a8e32e"},
	{"rmat/s8-ef8-seed1", rmatWith(8, 8, 1, nil), "8fb5ab35036032a1c4ec55cc784e03545cb62676fec8b2f5a8c70399cee327a2"},
	{"rmat/s8-ef8-seed-1", rmatWith(8, 8, -1, nil), "01a667cd9a6fb8985f1d5f86bc96a07227c060c0a954fb6e6474bf4586248bca"},
	{"rmat/s9-ef64-seed3", rmatWith(9, 64, 3, nil), "eb4d479b646a4fa09c84346ffcdbfb497204f33c2100347f3e355d2a796160ec"},
	{"rmat/s10-ef8-seed42", rmatWith(10, 8, 42, nil), "84577cf762fddf3a9ecf7b6b6e6907360927f90430b1f02df49e42878c0c705f"},
	{"rmat/s10-ef8-seed43", rmatWith(10, 8, 43, nil), "bc735d6fa101eb22480aa1f766bd44347ba381892678536537e352ad2f441396"},
	{"rmat/s10-ef8-seed4", rmatWith(10, 8, 4, nil), "5787c46edd6ab6d93acd38980b967031b60aed46a4f87e791f853bfa44c83fe4"},
	{"rmat/s10-ef8-seed5-noise0", rmatWith(10, 8, 5, func(p *RMATParams) { p.Noise = 0 }), "fa14d72be18ddf151f9fd4798ff3d622cf82114b0baa580b72c205d467682969"},
	{"rmat/s6-ef4-seed9-zero-abc", func() *graph.Graph { return RMAT(RMATParams{Scale: 6, EdgeFactor: 4, Seed: 9}) }, "819572fd6004c25fffe45e23b0e43132cd5613a50b701bb699a3eb043d102ba6"},
	{"rmat/s12-ef8-seed1", rmatWith(12, 8, 1, nil), "6ab555a6da43b3cfd7e101140a17379e742628b9a9cf3f2b5bbacb11ee16f3f1"},
	{"rmat/s12-ef16-seed7", rmatWith(12, 16, 7, nil), "adb0e5f06af850741609ade1a6127e8ad7180760addb18581a6b02982381a3c7"},
	{"rmat/s12-ef16-seed-42", rmatWith(12, 16, -42, nil), "45846f65f5634cf70115bd3b533b179428d8b39a2ad954b16cc4f2d1d5153383"},
	{"rmat/s12-ef24-seed2-dense", rmatWith(12, 24, 2, func(p *RMATParams) { p.A, p.B, p.C = 0.60, 0.18, 0.18 }), "c9d226cca494cfd9dc1449859f1f7ec277f63d341d2552fe9174f0a74ae600f2"},
	{"rmat/s13-ef12-seed1", rmatWith(13, 12, 1, nil), "0a001a929649c77bd406efbfd570b81f4894eec785211f7033861f5a698fdec6"},
	// serve-query hot set and first cold seed of bench seed 1.
	{"rmat/s12-ef16-hot1", rmatWith(12, 16, 141867941202, nil), "cc0b45e7554cf72d811f81a9b1a34e9eb315821fb7b6d6e408bc916d98d2e812"},
	{"rmat/s12-ef16-hot2", rmatWith(12, 16, 66022479439, nil), "12f401100b39c695c48c3da37210ff2145b5de339cfeb5b74b468ddd8f74ff88"},
	{"rmat/s12-ef16-cold1", rmatWith(12, 16, 2199040032769, nil), "fd1ac1382c942ea352eeee2ddc0fef15acea08656c5519aba368bb45567a72dd"},

	// Chung-Lu: Gamma <= 1 selects the default 2.3.
	{"chunglu/n0-m0", chungLu(ChungLuParams{}), "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	{"chunglu/n0-m10", chungLu(ChungLuParams{M: 10, Seed: 1}), "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
	{"chunglu/n1-m5", chungLu(ChungLuParams{N: 1, M: 5, Gamma: 2.4, Seed: 2}), "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
	{"chunglu/n2-m10", chungLu(ChungLuParams{N: 2, M: 10, Seed: 3}), "359ad77c04cfcb7e9de6cca919c4924ff161d0dbdedbc0e20211649dc3b9ad99"},
	{"chunglu/n2-m10-cap", chungLu(ChungLuParams{N: 2, M: 10, Gamma: 2.6, MaxDegreeCap: 0.5, Seed: 3}), "359ad77c04cfcb7e9de6cca919c4924ff161d0dbdedbc0e20211649dc3b9ad99"},
	{"chunglu/n100-m0", chungLu(ChungLuParams{N: 100, Gamma: 2.4, Seed: 4}), "33e15ec51f02d31aedb153489237b7938676d30e5a211a4498ae4910930e1a86"},
	{"chunglu/n100-m500-g2.0", chungLu(ChungLuParams{N: 100, M: 500, Gamma: 2.0, Seed: 5}), "905ab71ab29608ecfecff6ca1d5b0c251d99dd8e4a202b1f9e81ae27846edc8d"},
	{"chunglu/n100-m800-g2.6-cap", chungLu(ChungLuParams{N: 100, M: 800, Gamma: 2.6, MaxDegreeCap: 0.3, Seed: -6}), "d04c820b89e9be8ca3d67b230407807e3f75a3c3bd236d8005a1504ee1e178b3"},
	{"chunglu/n100-m400-g1", chungLu(ChungLuParams{N: 100, M: 400, Gamma: 1, Seed: 7}), "7e0b0a7cd7dfb4e718f13d2bd06adaa0532ef4729b4126433f55c3def03368af"},
	{"chunglu/n600-m3000-g2.1", chungLu(ChungLuParams{N: 600, M: 3000, Gamma: 2.1, Seed: 3}), "fca3801162f2008261130a36533f1a95b1092ae1e9cd0644c2ca3744f539dd6e"},
	{"chunglu/n4096-m32768-g2.1", chungLu(ChungLuParams{N: 4096, M: 32768, Gamma: 2.1, Seed: 7}), "cc976327e909b636fb85174bf7c7d35a5e70761f51d72ee7876a796ac4c079d0"},
	{"chunglu/n4096-m32768-g2.9", chungLu(ChungLuParams{N: 4096, M: 32768, Gamma: 2.9, Seed: 7}), "084bde5220057810ad674af795f14fe6a0cd134a2ab39565a3035b9e2076f7d4"},
	{"chunglu/n4096-m32768-g2.1-cap", chungLu(ChungLuParams{N: 4096, M: 32768, Gamma: 2.1, MaxDegreeCap: 0.05, Seed: 7}), "4bac4e1f5746af67449775e6526fe22d7f6bc5fcb6c54bcd8c96e78b837ad0dc"},
	{"chunglu/n4096-m262144-g2.0", chungLu(ChungLuParams{N: 1 << 12, M: 64 << 12, Gamma: 2.0, Seed: 4}), "b82fa9cd8955221b57091012fb17aa18b9faa4d3fa1635525e6f1de5d2bc2832"},
	{"chunglu/n4096-m65536-default", chungLu(ChungLuParams{N: 1 << 12, M: 16 << 12, Seed: -99}), "ff4720954da30b1c8604f81fed1e7305f99e675b798321f9f2ce91afb710b499"},
	{"chunglu/n4096-m65536-g2.4", chungLu(ChungLuParams{N: 1 << 12, M: 16 << 12, Gamma: 2.4, Seed: 12}), "87f0d8cc315f3a35b199d22f04dccc37e03fc21989d0747571c62888c6551a08"},

	// Lattices.
	{"trigrid/0x5", func() *graph.Graph { return TriGrid(0, 5) }, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	{"trigrid/1x1", func() *graph.Graph { return TriGrid(1, 1) }, "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
	{"trigrid/1x5", func() *graph.Graph { return TriGrid(1, 5) }, "5dd4761d236f21a9bc309c21a7501149fe32c96dc2fa3456802897a8222f4c7b"},
	{"trigrid/5x1", func() *graph.Graph { return TriGrid(5, 1) }, "5dd4761d236f21a9bc309c21a7501149fe32c96dc2fa3456802897a8222f4c7b"},
	{"trigrid/3x4", func() *graph.Graph { return TriGrid(3, 4) }, "cef8169ad82a50bcb03823ea145272bce2de7e1f06c1103e68044d815ac835c7"},
	{"trigrid/100x100", func() *graph.Graph { return TriGrid(100, 100) }, "8d815f7715bf19b51526c17edfa15210e63cf363f38aeae8ef58cdebb58b83a8"},
	{"grid/0x5", func() *graph.Graph { return Grid(0, 5) }, "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
	{"grid/1x1", func() *graph.Graph { return Grid(1, 1) }, "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
	{"grid/3x4", func() *graph.Graph { return Grid(3, 4) }, "b752e538a653299c3de3564e32d2f64f041d0d25967874ec665fa30ca4c7440b"},
	{"grid/50x70", func() *graph.Graph { return Grid(50, 70) }, "e27a7ff45f8558ba21f6d5b886e84c9676d1cc3553ba35621f9bdde457b8265b"},

	// Erdős–Rényi.
	{"er/n1-m3", func() *graph.Graph { return ErdosRenyi(1, 3, 1) }, "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
	{"er/n1000-m5000", func() *graph.Graph { return ErdosRenyi(1000, 5000, 3) }, "66155714f53e98f6a3362c2f7b19d789305c4d8ec21e59f896db1001fdb3972b"},
	{"er/n4096-m32768", func() *graph.Graph { return ErdosRenyi(1<<12, 8<<12, 1) }, "0673f6ce2cbf0820517682b53af13a24a769d67bc044e47afea970e22dd61ccf"},
	{"er/n2000-m7990-seed-7", func() *graph.Graph { return ErdosRenyi(2000, 7990, -7) }, "4995ff1deca5e3d558b43a76919caf086e59b4e8fe1d68d06da1a728552c00a5"},
}

// goldenLarge holds the full-size inputs: the paper-experiment
// harness and benchmark graphs at scales 14 to 16. They exercise the
// same code as the rows above at the sizes that are timed, and are
// skipped under the race detector, which slows them tenfold.
var goldenLarge = []goldenRow{
	// Harness rmat-sn and rmat-dense at scale 15, count-skewed
	// rmat-sn of bench seeds 1 and 7, and the scale-16 R-MAT of the
	// README and of serve-stream bench seed 1.
	{"rmat/s14-ef32-seed2-dense", rmatWith(14, 32, 2, func(p *RMATParams) { p.A, p.B, p.C = 0.60, 0.18, 0.18 }), "6ef5c134e89ffa1f069eb07532bbef681eca62a0afbda6ab0701122764e29c99"},
	{"rmat/s15-ef16-seed1", rmatWith(15, 16, 1, nil), "9e2d70f7635c1e71a8712b8323e91bb75fca900bf50fd43049d160269b15aacb"},
	{"rmat/s15-ef16-seed11-noise0", rmatWith(15, 16, 11, func(p *RMATParams) { p.Noise = 0 }), "891becb1bb172e5dbdaee317b4a716c3ac4092b184f9d000da92d6eb72b95058"},
	{"rmat/s15-ef16-skewed1", rmatWith(15, 16, 5577006791947779410, nil), "45bfb144c212462fff0c27e38a2b2d265e8e218fdac1c4b8405f1f8f21ab45b0"},
	{"rmat/s15-ef16-skewed7", rmatWith(15, 16, 8475284246537043955, nil), "f07cd41070c6c5f9d5062f7e95caca1963fc72ae57579cc1dbee39b8e661051a"},
	{"rmat/s16-ef16-seed42", rmatWith(16, 16, 42, nil), "e449af9b0cbf780656f4be8582e1330bce78d050d9021f756c62d70bd16708ec"},
	{"rmat/s16-ef16-stream1", rmatWith(16, 16, 141867941202, nil), "5124df68782e8e89675e69f6e0e40fd12de71e3b504bd60dfccaf3a40aa02f21"},
	// Harness cl-web20, cl-web24 and cl-flat at scale 15, then
	// count-skewed cl-web24 and count-flat cl-flat of bench seed 1.
	{"chunglu/n32768-g2.0-web20", chungLu(ChungLuParams{N: 1 << 15, M: 32 << 15, Gamma: 2.0, Seed: 3}), "51a3ebdf5c3f44ee33b77796f18aab99dbbe6d8da20bf554ad6b39f9fce9a34f"},
	{"chunglu/n32768-g2.4-web24", chungLu(ChungLuParams{N: 1 << 15, M: 32 << 15, Gamma: 2.4, Seed: 4}), "cae1fa6659fae28a0fa1eced1a994a5f44db662d271ea407348dafafdc89ded2"},
	{"chunglu/n32768-g2.6-cap-flat", chungLu(ChungLuParams{N: 1 << 15, M: 16 << 15, Gamma: 2.6, MaxDegreeCap: 0.002, Seed: 5}), "1746f6d9bdc6e7c0efbe1db5fe716deef81dac059c3e173ff62898e202b16953"},
	{"chunglu/n32768-g2.4-skewed1", chungLu(ChungLuParams{N: 1 << 15, M: 32 << 15, Gamma: 2.4, Seed: 8674665223082153551}), "153cbafbced00a6657c60117fbbe49b27133dfa1ea54e7d88b941b4d4811b6f6"},
	{"chunglu/n32768-g2.6-cap-flat1", chungLu(ChungLuParams{N: 1 << 15, M: 16 << 15, Gamma: 2.6, MaxDegreeCap: 0.002, Seed: 6129484611666145821}), "e61cf0d57fb9a1c7ebed853464146470a52bd13cd73997307aede2bebc9aa307"},
	// Harness trigrid at scale 15 and count-flat trigrid of bench
	// seed 1.
	{"trigrid/724x724", func() *graph.Graph { return TriGrid(724, 724) }, "69b76a29b2957ae5f579cd438bc96b8dadc4e3714d28049a940e22e354c4236c"},
	{"trigrid/723x731-flat1", func() *graph.Graph { return TriGrid(723, 731) }, "e65a3bd547f72850f888ac9f66343f4000fe406301f37df1aa5e7670fc60f272"},
}

func TestGeneratorGoldenHashes(t *testing.T) {
	rows := goldenGraphs
	if !raceEnabled {
		rows = append(rows, goldenLarge...)
	}
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			if got := csrHash(c.build()); got != c.want {
				t.Errorf("CSR hash %s, want %s", got, c.want)
			}
		})
	}
}
