// JSONL trace golden for the non-linear protocol families.
//
// test_trace_golden and test_activation_golden pin the linear family's
// full event streams; this suite does the same for quadratic, both
// Dolev-Strong rows, phase-king, hotstuff and the non-linear ext:* rows.
// Each cell pins the SHA-256 of the full JSONL trace plus the run totals
// (rounds, records, honest and adversary bits). The traces carry each
// family's slot-start and phase events, every adversary action and every
// commit, so a drift in a family's trace hook, its named-adversary
// branch or its fault-schedule branch shows up here.
//
// Cells: every named adversary of each row, "fuzz", and an explicit
// all-silent schedule, under the lockstep, bounded:2 and async delay
// policies, at n=10, f=3, L=5 (ext rows: "none" and "fuzz" under
// lockstep, 256-byte payload). A drifted cell prints its fresh row in
// initializer syntax, so a deliberate, reviewed format change can re-pin
// it.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "runner/registry.hpp"
#include "trace/trace.hpp"

namespace ambb {
namespace {

struct GoldenRow {
  const char* protocol;
  const char* adversary;
  const char* net;
  const char* trace_sha256;
  std::uint64_t rounds;
  std::uint64_t records;
  std::uint64_t honest_bits;
  std::uint64_t adversary_bits;
};

// The named "silent" strategy written as a fault schedule: the first f
// nodes corrupt from round 0 and silenced for the whole run.
constexpr const char* kSilentSched =
    "sched:corrupt(0,0,1,2);silence(0,0,*);silence(1,0,*);silence(2,0,*)";

// clang-format off
constexpr GoldenRow kGolden[] = {
    {"dolev-strong", "equivocate", "async",
     "ae84889c8cc8d1d94f5211c3b25858ab15cab0f505c24b89f1bf06a0a34be691",
     25, 110, 463788, 217932},
    {"dolev-strong", "equivocate", "bounded:2",
     "7a43d01ab51ff1fd76430eecce222bd8eb162e32bff5ee97177783c2e5ea8298",
     25, 90, 400608, 199212},
    {"dolev-strong", "equivocate", "lockstep",
     "ae84889c8cc8d1d94f5211c3b25858ab15cab0f505c24b89f1bf06a0a34be691",
     25, 110, 463788, 217932},
    {"dolev-strong", "fuzz", "async",
     "b09c2f80ec7428e9d15e9d51f14d88e153c5c8b306f21ba9e0ed8c2d63c2ffac",
     25, 71, 266760, 81848},
    {"dolev-strong", "fuzz", "bounded:2",
     "67f54ec7e1515b24cda5b4accda6f532b352984f3c7bb097fd932547e8f71291",
     25, 52, 217620, 83616},
    {"dolev-strong", "fuzz", "lockstep",
     "34c71b38f574873330b45ea70bedf40d78713f91dedfbaafbdb2e87ea5694ef3",
     25, 71, 255060, 77688},
    {"dolev-strong", "none", "async",
     "ff00f76695cb7238c93161c3033486b59c7cb542020b6ab84402131658d179c0",
     25, 50, 362700, 0},
    {"dolev-strong", "none", "bounded:2",
     "a44f6ce84438bbd5415b920cbeb1d324e634fda23c9f566730652ad8464093c4",
     25, 47, 424476, 0},
    {"dolev-strong", "none", "lockstep",
     "ff00f76695cb7238c93161c3033486b59c7cb542020b6ab84402131658d179c0",
     25, 50, 362700, 0},
    {"dolev-strong", kSilentSched, "async",
     "307a0401906de8d99fa153f1f38697e3d093ef0d33b64226acc80a0ea8f0921b",
     25, 14, 100152, 0},
    {"dolev-strong", kSilentSched, "bounded:2",
     "dee2700b0c2c580033555670070c7095eb05c56c97049cd14336549518a600a9",
     25, 5, 35100, 0},
    {"dolev-strong", kSilentSched, "lockstep",
     "307a0401906de8d99fa153f1f38697e3d093ef0d33b64226acc80a0ea8f0921b",
     25, 14, 100152, 0},
    {"dolev-strong", "silent", "async",
     "faba588b90b3e00d962ce2360bc1e36e13a71d7433273c0908f76e26fd38eff5",
     25, 14, 100152, 0},
    {"dolev-strong", "silent", "bounded:2",
     "47db6c844aebaa4f75febc47a14e4857073d3091d6513f3b337e01e0bcfb8cd0",
     25, 5, 35100, 0},
    {"dolev-strong", "silent", "lockstep",
     "faba588b90b3e00d962ce2360bc1e36e13a71d7433273c0908f76e26fd38eff5",
     25, 14, 100152, 0},
    {"dolev-strong", "stagger", "async",
     "b429f57fefba6893ffbe74c0ed90c443b6e193781f8be5ad2005e0b548b1c2e8",
     25, 95, 512928, 150696},
    {"dolev-strong", "stagger", "bounded:2",
     "714750eee6a4f4ed32b51be5abfcab48a532572d5281877d682fde7448e35811",
     25, 78, 390780, 171288},
    {"dolev-strong", "stagger", "lockstep",
     "b429f57fefba6893ffbe74c0ed90c443b6e193781f8be5ad2005e0b548b1c2e8",
     25, 95, 512928, 150696},
    {"dolev-strong-msig", "equivocate", "async",
     "02d8557818ee5d1ed0b31e2273bfefd451c0a1640bbcfa371c413b0a90f8e8ab",
     25, 110, 291312, 142188},
    {"dolev-strong-msig", "equivocate", "bounded:2",
     "1ab0263fb4afe9084a3334b516194a0aeee917a2b91561a62d883d1edb4991b7",
     25, 90, 213282, 116178},
    {"dolev-strong-msig", "equivocate", "lockstep",
     "02d8557818ee5d1ed0b31e2273bfefd451c0a1640bbcfa371c413b0a90f8e8ab",
     25, 110, 291312, 142188},
    {"dolev-strong-msig", "fuzz", "async",
     "ed3932c7f915e9b47cbf99bb8a7a461d123521a1bbfb40d65794c11d549cf3f9",
     25, 71, 182070, 57222},
    {"dolev-strong-msig", "fuzz", "bounded:2",
     "7596d0ee284f7c84febea8241aeb3f7ea1429d5493f16a917791ab3018d704b6",
     25, 52, 130050, 47974},
    {"dolev-strong-msig", "fuzz", "lockstep",
     "8c55566c2c0544bc9359beaddd3e52ab1187f106d92b8ccff9fec06f1efc141d",
     25, 71, 182070, 57222},
    {"dolev-strong-msig", "none", "async",
     "06b1e95019d935aa29949a44364b8833be1ea74d74aa2e1d6b00be9cb4e9daf2",
     25, 50, 260100, 0},
    {"dolev-strong-msig", "none", "bounded:2",
     "95f6244f67b238b3720b3c52172e785d536abc2afe7bc778ba5bc990de675501",
     25, 47, 244494, 0},
    {"dolev-strong-msig", "none", "lockstep",
     "06b1e95019d935aa29949a44364b8833be1ea74d74aa2e1d6b00be9cb4e9daf2",
     25, 50, 260100, 0},
    {"dolev-strong-msig", kSilentSched, "async",
     "858fefe993241475d355b88afe1834ceb9f4c1fc8d666cec489a90f9a2c996f5",
     25, 14, 72828, 0},
    {"dolev-strong-msig", kSilentSched, "bounded:2",
     "dfa0401bdfca3737641f723c00421479929f9c400fe41b532c11de74a933a700",
     25, 5, 26010, 0},
    {"dolev-strong-msig", kSilentSched, "lockstep",
     "858fefe993241475d355b88afe1834ceb9f4c1fc8d666cec489a90f9a2c996f5",
     25, 14, 72828, 0},
    {"dolev-strong-msig", "silent", "async",
     "ebc03390a0b95868cc4361fbe2e801a3634d3e22dd1291e9c2f2957bc722f1f1",
     25, 14, 72828, 0},
    {"dolev-strong-msig", "silent", "bounded:2",
     "534b968a65f3cc8736447b59cf8590c31c80fe25e05abfb3e7339c6de4720962",
     25, 5, 26010, 0},
    {"dolev-strong-msig", "silent", "lockstep",
     "ebc03390a0b95868cc4361fbe2e801a3634d3e22dd1291e9c2f2957bc722f1f1",
     25, 14, 72828, 0},
    {"dolev-strong-msig", "stagger", "async",
     "a0c1f6ec0af9650c390d3188420ce3415a9aac96c4a1e35bc4d03f0cedfd78a3",
     25, 95, 291312, 105774},
    {"dolev-strong-msig", "stagger", "bounded:2",
     "44ef35a93f47a82e0bd991668154625940aa9c086d2a56afdbea7d245bebde33",
     25, 78, 208080, 100572},
    {"dolev-strong-msig", "stagger", "lockstep",
     "a0c1f6ec0af9650c390d3188420ce3415a9aac96c4a1e35bc4d03f0cedfd78a3",
     25, 95, 291312, 105774},
    {"ext:dolev-strong", "fuzz", "lockstep",
     "b02ef31a3e0e98a38c1d1ad4fad05ae293eece9dfd74c5daf997eae8cc9cfccc",
     286, 658, 4797172, 103712},
    {"ext:dolev-strong", "none", "lockstep",
     "e396ffce31b3f106a0933ae239457d667c15ff732a08eb4346016766b2f83cb2",
     286, 650, 4915700, 0},
    {"ext:dolev-strong-msig", "fuzz", "lockstep",
     "ddf6b909243bbacf1fef4ebfdadc2fb73f03f47f8176988e7793519d1b93727a",
     286, 658, 3668572, 103712},
    {"ext:dolev-strong-msig", "none", "lockstep",
     "fcc0dfb2dce10b4b8ce08564653b5c6866fc8dc812695872689ca9c1ba5d5b7b",
     286, 650, 3787100, 0},
    {"ext:quadratic", "fuzz", "lockstep",
     "0fa79e31dcf9a0b837bb314d950407164d554af2954dddfa8e19cc7a1f62e0f0",
     891, 658, 3638872, 103712},
    {"ext:quadratic", "none", "lockstep",
     "67f104a1a82cab3678692697ac1b8e215544e2cfce22e4b535956629d86bce84",
     891, 650, 3757400, 0},
    {"hotstuff", "fuzz", "async",
     "83007081e6f390d81040e3fe9f5daf0538fc8980800ead3c33cfa5ba0367cfe8",
     30, 68, 58772, 29672},
    {"hotstuff", "fuzz", "bounded:2",
     "0a793bb01c0dd26c5e3d099ea7eabfb4ab6b7fa06a9e224531ecaf535c27f3b7",
     30, 18, 21736, 11440},
    {"hotstuff", "fuzz", "lockstep",
     "77b994a96b9975db8c5675c8142c254917dd1b97abc22afeab2e26347121d7a2",
     30, 105, 82724, 45044},
    {"hotstuff", "none", "async",
     "8664546bb11944d82810af93ed3e9498cffb754d673b405ad4808e0f34fd8eb4",
     30, 105, 128340, 0},
    {"hotstuff", "none", "bounded:2",
     "c104ee62d2b4c7a6adc2cad9ac9d232be5ce964a4a3dccaf53c9b8934f6ebe21",
     30, 22, 35464, 0},
    {"hotstuff", "none", "lockstep",
     "8664546bb11944d82810af93ed3e9498cffb754d673b405ad4808e0f34fd8eb4",
     30, 105, 128340, 0},
    {"hotstuff", kSilentSched, "async",
     "65b51c35be41d3006c5c5a66a8bac2c25e51998d379b11d7dbbc239d22f36b85",
     30, 30, 44472, 0},
    {"hotstuff", kSilentSched, "bounded:2",
     "614590cf2c7f07544279c4ca13cded642c899615da0688cb708776553a2fb222",
     30, 6, 12584, 0},
    {"hotstuff", kSilentSched, "lockstep",
     "65b51c35be41d3006c5c5a66a8bac2c25e51998d379b11d7dbbc239d22f36b85",
     30, 30, 44472, 0},
    {"hotstuff", "selective", "async",
     "da8d7f3de0fefd7ec2fb552a7d26a4d9a9e6dadf25d2e10f178ada1d5b77d872",
     30, 123, 68496, 56436},
    {"hotstuff", "selective", "bounded:2",
     "993a1c8d4e72c7fda45c501335ee5fad816e17819c95694ded36a1348707bbc3",
     30, 22, 18876, 16588},
    {"hotstuff", "selective", "lockstep",
     "da8d7f3de0fefd7ec2fb552a7d26a4d9a9e6dadf25d2e10f178ada1d5b77d872",
     30, 123, 68496, 56436},
    {"phase-king", "confuse", "async",
     "5abf68709a8dff402abeae59dfcc05f492b302ea2a72974dd959594988fba24f",
     70, 1667, 455967, 310084},
    {"phase-king", "confuse", "bounded:2",
     "5d9081773de0d1224f580e80e167a470222de79a76e103d030ae19ced905a0aa",
     70, 1667, 232479, 310084},
    {"phase-king", "confuse", "lockstep",
     "5abf68709a8dff402abeae59dfcc05f492b302ea2a72974dd959594988fba24f",
     70, 1667, 455967, 310084},
    {"phase-king", "equivocate", "async",
     "42524d2becee11136a5a3e307fc00c460466064cd6c977ee1167445df4e7af6d",
     70, 1667, 467487, 311620},
    {"phase-king", "equivocate", "bounded:2",
     "ab032785af91fdecf6bf6a393146ff8e86bbc019a5e95c650dde127990775b39",
     70, 1667, 241695, 311620},
    {"phase-king", "equivocate", "lockstep",
     "42524d2becee11136a5a3e307fc00c460466064cd6c977ee1167445df4e7af6d",
     70, 1667, 467487, 311620},
    {"phase-king", "fuzz", "async",
     "8e3c781db401c8b13c6eb09be367305e35e7ee134a3d62a96d85f4aeae0a5db1",
     70, 475, 687141, 234081},
    {"phase-king", "fuzz", "bounded:2",
     "f081853ffdab6293eb656b739abca917660943e5917d255d986f3f93d2d66de9",
     70, 475, 182565, 65889},
    {"phase-king", "fuzz", "lockstep",
     "97c2cbc62bde73964488cd8d3177f46f71c59a7e731f442b9d64406f8ea299a3",
     70, 475, 825381, 273249},
    {"phase-king", "none", "async",
     "b78e09b5f92319b0aaa0b680b135e0c25722234a3d7171635260d7d2cb36cc36",
     70, 425, 1197225, 0},
    {"phase-king", "none", "bounded:2",
     "75a5757b1960e36fdb1ba1c3805613925820ecf5cc73cb1d3830bd06543edf39",
     70, 425, 273321, 0},
    {"phase-king", "none", "lockstep",
     "b78e09b5f92319b0aaa0b680b135e0c25722234a3d7171635260d7d2cb36cc36",
     70, 425, 1197225, 0},
    {"phase-king", kSilentSched, "async",
     "764667129b4b13ff6b8afedf2a010afb201b1503a9780f270f2c8a21eb3c0525",
     70, 287, 414495, 0},
    {"phase-king", kSilentSched, "bounded:2",
     "a83b0ad26e1fac344fd1fb0ed9e4bf0efcdd49cd98c5d947c3f1a9446709794e",
     70, 287, 163359, 0},
    {"phase-king", kSilentSched, "lockstep",
     "764667129b4b13ff6b8afedf2a010afb201b1503a9780f270f2c8a21eb3c0525",
     70, 287, 414495, 0},
    {"phase-king", "silent", "async",
     "7bb2bfa916ad0e440007b5730b373b609e138f87b1868299ab9adc08266202d2",
     70, 287, 414495, 0},
    {"phase-king", "silent", "bounded:2",
     "6ab0c457dee117aadb515a53ad2be92f5cafeccaa6f5e8d3e79a5bd60a5d186a",
     70, 287, 163359, 0},
    {"phase-king", "silent", "lockstep",
     "7bb2bfa916ad0e440007b5730b373b609e138f87b1868299ab9adc08266202d2",
     70, 287, 414495, 0},
    {"quadratic", "conspiracy", "async",
     "efc163c77b8241d38ee14a0bfda941f5c8101875a8e9e3061e3471947e7e8c9f",
     80, 473, 1026900, 107160},
    {"quadratic", "conspiracy", "bounded:2",
     "53bf52cddb664c7fff3803aa7629eb99df8dd33c3dbc5204d206c04494cf9132",
     80, 1780, 2325780, 422040},
    {"quadratic", "conspiracy", "lockstep",
     "efc163c77b8241d38ee14a0bfda941f5c8101875a8e9e3061e3471947e7e8c9f",
     80, 473, 1026900, 107160},
    {"quadratic", "equivocate", "async",
     "9d9ad4092353bc7dfe86be2354c7a68f2856b932b36c3dc0ba6043c2dbaf7f8f",
     80, 785, 832608, 311592},
    {"quadratic", "equivocate", "bounded:2",
     "cbfe6ace115c7077d0bf2635fcf784fac0460697e19eb3b456bae09938defc52",
     80, 1597, 1944288, 821672},
    {"quadratic", "equivocate", "lockstep",
     "9d9ad4092353bc7dfe86be2354c7a68f2856b932b36c3dc0ba6043c2dbaf7f8f",
     80, 785, 832608, 311592},
    {"quadratic", "floodaccuse", "async",
     "ad008ca8894b1b3bf1df71d077b7bae28179c63474d68afc56cc5507010b3ee1",
     80, 1148, 1268820, 614820},
    {"quadratic", "floodaccuse", "bounded:2",
     "27144441b16275c6fa0defe0f55f4a9186bc2a39ef91dc31f3f5e02ee8abb192",
     80, 1332, 1582740, 754020},
    {"quadratic", "floodaccuse", "lockstep",
     "ad008ca8894b1b3bf1df71d077b7bae28179c63474d68afc56cc5507010b3ee1",
     80, 1148, 1268820, 614820},
    {"quadratic", "framer", "async",
     "3b3a7542c3cffd12eb438dbd0d282df2e8504508eea780af7e377faaab0921a1",
     80, 56, 180180, 94500},
    {"quadratic", "framer", "bounded:2",
     "329fde8c9804b757d64c6fc3dbe881b09fe46c090cf818aaa5423e12092d06fb",
     80, 865, 1283220, 604580},
    {"quadratic", "framer", "lockstep",
     "3b3a7542c3cffd12eb438dbd0d282df2e8504508eea780af7e377faaab0921a1",
     80, 56, 180180, 94500},
    {"quadratic", "fuzz", "async",
     "403cf678915184f6981c5a5078c9a917794a23dbf652891e5ef3071e0a49f358",
     80, 53, 180180, 53768},
    {"quadratic", "fuzz", "bounded:2",
     "5d8f37647160f62aec218b8f4b80b86b3e3ca718a9b8322ca6c93e6503a9dcaa",
     80, 670, 1087380, 356632},
    {"quadratic", "fuzz", "lockstep",
     "cb7cd325b735161b0319949698f4374de4c2fe70c827ca9e80614af5913b1524",
     80, 53, 180180, 53768},
    {"quadratic", "lateprop", "async",
     "303f6830832454ea11cc6494d1b87590c2ebd6b382e3b6fa4d782c31e5082721",
     80, 1094, 1208340, 526584},
    {"quadratic", "lateprop", "bounded:2",
     "fb34b594d27578e5101e4cb1fb8746bfb06093bf10bcd5183bf6d27b4ecd2fc1",
     80, 1604, 1968660, 851064},
    {"quadratic", "lateprop", "lockstep",
     "303f6830832454ea11cc6494d1b87590c2ebd6b382e3b6fa4d782c31e5082721",
     80, 1094, 1208340, 526584},
    {"quadratic", "none", "async",
     "470aa0cbbe2ea4c913cb3f74e31fa22ffad2f4b67999200323883c4d937d68fb",
     80, 50, 257400, 0},
    {"quadratic", "none", "bounded:2",
     "375bafa9916b9c68af99c1111d420c2e6d4490472ca2de9064bd317574b5fcfc",
     80, 674, 2054520, 0},
    {"quadratic", "none", "lockstep",
     "470aa0cbbe2ea4c913cb3f74e31fa22ffad2f4b67999200323883c4d937d68fb",
     80, 50, 257400, 0},
    {"quadratic", kSilentSched, "async",
     "3d228077278acbe03781e3b07107af7416df38130ba6021b4a53aac9716268c3",
     80, 308, 918792, 0},
    {"quadratic", kSilentSched, "bounded:2",
     "93feeacdb0d6abb9dd43f2f5b720867a4ad7cf9c1b6886f5784123ed3442375a",
     80, 667, 1952712, 0},
    {"quadratic", kSilentSched, "lockstep",
     "3d228077278acbe03781e3b07107af7416df38130ba6021b4a53aac9716268c3",
     80, 308, 918792, 0},
    {"quadratic", "silent", "async",
     "a4c19c558f9892fd6b48587d11b7b47e521c9906c2411cd798e9ca82017f3329",
     80, 308, 918792, 0},
    {"quadratic", "silent", "bounded:2",
     "e6d3afe9e59e24da2986634d512c74c59144a354006399ddd4fe7e19522a4ddb",
     80, 667, 1952712, 0},
    {"quadratic", "silent", "lockstep",
     "a4c19c558f9892fd6b48587d11b7b47e521c9906c2411cd798e9ca82017f3329",
     80, 308, 918792, 0},
};
// clang-format on

constexpr const char* kNets[] = {"lockstep", "bounded:2", "async"};

CommonParams params_for(const std::string& protocol_name,
                        const std::string& adversary, const std::string& net) {
  CommonParams p;
  p.n = 10;
  p.f = 3;
  p.slots = 5;
  p.seed = 1;
  p.adversary = adversary;
  p.net = net;
  if (protocol_name.rfind("ext:", 0) == 0) p.payload_bytes = 256;
  return p;
}

/// Every (protocol, adversary, net) cell the golden must cover.
std::set<std::tuple<std::string, std::string, std::string>> cells() {
  std::set<std::tuple<std::string, std::string, std::string>> out;
  for (const char* name : {"quadratic", "dolev-strong", "dolev-strong-msig",
                           "phase-king", "hotstuff"}) {
    std::vector<std::string> advs = protocol(name).policy.named;
    advs.push_back("fuzz");
    advs.push_back(kSilentSched);
    for (const std::string& adv : advs) {
      for (const char* net : kNets) out.emplace(name, adv, net);
    }
  }
  for (const char* name :
       {"ext:quadratic", "ext:dolev-strong", "ext:dolev-strong-msig"}) {
    for (const char* adv : {"none", "fuzz"}) out.emplace(name, adv, "lockstep");
  }
  return out;
}

std::string render_row(const std::string& protocol_name,
                       const std::string& adversary, const std::string& net) {
  std::ostringstream os;
  trace::JsonlSink sink(os);
  const RunResult res = protocol(protocol_name)
                            .run(RunRequest{
                                params_for(protocol_name, adversary, net),
                                &sink});
  const std::string jsonl = os.str();
  const Digest d = Sha256::hash(std::string_view(jsonl));
  std::ostringstream row;
  row << "    {\"" << protocol_name << "\", \"" << adversary << "\", \""
      << net << "\",\n     \"" << to_hex(d) << "\",\n     " << res.rounds
      << ", " << res.stats_summary().records << ", " << res.honest_bits
      << ", " << res.adversary_bits << "},";
  return row.str();
}

std::string expected_row(const GoldenRow& g) {
  std::ostringstream row;
  row << "    {\"" << g.protocol << "\", \"" << g.adversary << "\", \""
      << g.net << "\",\n     \"" << g.trace_sha256 << "\",\n     "
      << g.rounds << ", " << g.records << ", " << g.honest_bits << ", "
      << g.adversary_bits << "},";
  return row.str();
}

TEST(FamilyTraceGolden, CoversEveryCell) {
  std::set<std::tuple<std::string, std::string, std::string>> pinned;
  for (const GoldenRow& g : kGolden) {
    EXPECT_TRUE(pinned.emplace(g.protocol, g.adversary, g.net).second)
        << "duplicate golden row " << g.protocol << "/" << g.adversary
        << "/" << g.net;
  }
  std::string missing;
  for (const auto& [name, adv, net] : cells()) {
    if (pinned.count({name, adv, net}) == 0) {
      missing += render_row(name, adv, net) + "\n";
    }
  }
  EXPECT_TRUE(missing.empty()) << "cells without a golden row:\n" << missing;
}

TEST(FamilyTraceGolden, TracesAndTotalsMatchPerFamilyDrivers) {
  for (const GoldenRow& g : kGolden) {
    SCOPED_TRACE(std::string(g.protocol) + "/" + g.adversary + "/" + g.net);
    EXPECT_EQ(render_row(g.protocol, g.adversary, g.net), expected_row(g));
  }
}

}  // namespace
}  // namespace ambb
