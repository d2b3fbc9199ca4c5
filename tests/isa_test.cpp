#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "isa/spec.hpp"

namespace aegis::isa {
namespace {

class SpecPerCpuTest : public ::testing::TestWithParam<CpuModel> {};

TEST_P(SpecPerCpuTest, TotalAndLegalCountsMatchPaperScale) {
  const IsaSpecification spec = IsaSpecification::generate(GetParam());
  // Section VI-C: 3386 of 14014 legal (24.16 %, Intel); 3407 of 14016
  // (24.31 %, AMD).
  if (vendor_of(GetParam()) == Vendor::kIntel) {
    EXPECT_EQ(spec.total_count(), 14014u);
    EXPECT_EQ(spec.legal_count(), 3386u);
  } else {
    EXPECT_EQ(spec.total_count(), 14016u);
    EXPECT_EQ(spec.legal_count(), 3407u);
  }
}

TEST_P(SpecPerCpuTest, MostFaultsAreIllegalOpcode) {
  const IsaSpecification spec = IsaSpecification::generate(GetParam());
  // Paper: ~98.8 % of cleanup faults are illegal-instruction (#UD).
  EXPECT_GT(spec.illegal_opcode_fault_fraction(), 0.985);
  EXPECT_LT(spec.illegal_opcode_fault_fraction(), 1.0);
}

TEST_P(SpecPerCpuTest, UidsAreDenseAndRoundTrip) {
  const IsaSpecification spec = IsaSpecification::generate(GetParam());
  for (std::uint32_t uid = 0; uid < spec.total_count(); uid += 97) {
    EXPECT_EQ(spec.by_uid(uid).uid, uid);
  }
  EXPECT_THROW(spec.by_uid(static_cast<std::uint32_t>(spec.total_count())),
               std::out_of_range);
}

TEST_P(SpecPerCpuTest, Avx512NeverLegal) {
  const IsaSpecification spec = IsaSpecification::generate(GetParam());
  for (const auto& v : spec.variants()) {
    if (v.extension == Extension::kAvx512) {
      EXPECT_FALSE(v.legal()) << v.mnemonic;
    }
  }
}

TEST_P(SpecPerCpuTest, PrivilegedVariantsFaultWithGp) {
  const IsaSpecification spec = IsaSpecification::generate(GetParam());
  std::size_t privileged = 0;
  for (const auto& v : spec.variants()) {
    if (v.extension == Extension::kSystem) {
      EXPECT_EQ(v.fault, FaultKind::kPrivilegeFault) << v.mnemonic;
      ++privileged;
    }
  }
  EXPECT_GT(privileged, 10u);
}

TEST_P(SpecPerCpuTest, LegalVariantListMatchesLegalCount) {
  const IsaSpecification spec = IsaSpecification::generate(GetParam());
  EXPECT_EQ(spec.legal_variants().size(), spec.legal_count());
  for (const auto* v : spec.legal_variants()) EXPECT_TRUE(v->legal());
}

TEST_P(SpecPerCpuTest, MemoryVariantsHaveBytes) {
  const IsaSpecification spec = IsaSpecification::generate(GetParam());
  for (const auto& v : spec.variants()) {
    if (v.has_memory_operand && v.iclass != InstructionClass::kCacheFlush) {
      EXPECT_GT(v.mem_bytes, 0) << v.mnemonic;
    }
    if (!v.has_memory_operand) {
      EXPECT_EQ(v.mem_bytes, 0) << v.mnemonic;
    }
  }
}

TEST_P(SpecPerCpuTest, MnemonicsAreUnique) {
  const IsaSpecification spec = IsaSpecification::generate(GetParam());
  std::unordered_set<std::string> names;
  for (const auto& v : spec.variants()) names.insert(v.mnemonic);
  EXPECT_EQ(names.size(), spec.total_count());
}

TEST_P(SpecPerCpuTest, GenerationIsDeterministic) {
  const IsaSpecification a = IsaSpecification::generate(GetParam());
  const IsaSpecification b = IsaSpecification::generate(GetParam());
  ASSERT_EQ(a.total_count(), b.total_count());
  for (std::size_t i = 0; i < a.total_count(); i += 131) {
    EXPECT_EQ(a.variants()[i].mnemonic, b.variants()[i].mnemonic);
    EXPECT_EQ(a.variants()[i].fault, b.variants()[i].fault);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCpus, SpecPerCpuTest,
                         ::testing::Values(CpuModel::kIntelXeonE5_1650,
                                           CpuModel::kIntelXeonE5_4617,
                                           CpuModel::kAmdEpyc7252,
                                           CpuModel::kAmdEpyc7313P));

TEST(Spec, TsxIsIntelOnly) {
  const auto intel = IsaSpecification::generate(CpuModel::kIntelXeonE5_1650);
  const auto amd = IsaSpecification::generate(CpuModel::kAmdEpyc7252);
  auto tsx_legal = [](const IsaSpecification& spec) {
    for (const auto& v : spec.variants()) {
      if (v.extension == Extension::kTsx && v.legal()) return true;
    }
    return false;
  };
  EXPECT_TRUE(tsx_legal(intel));
  EXPECT_FALSE(tsx_legal(amd));
}

TEST(Spec, Avx2IsAmdOnlyOnTheseModels) {
  // The Table-I Xeons are Sandy-Bridge era: no AVX2/FMA/SHA.
  const auto intel = IsaSpecification::generate(CpuModel::kIntelXeonE5_1650);
  for (const auto& v : intel.variants()) {
    if (v.extension == Extension::kAvx2 || v.extension == Extension::kFma ||
        v.extension == Extension::kSha) {
      EXPECT_FALSE(v.legal()) << v.mnemonic;
    }
  }
}

TEST(Spec, VendorAndFamilyHelpers) {
  EXPECT_EQ(vendor_of(CpuModel::kIntelXeonE5_1650), Vendor::kIntel);
  EXPECT_EQ(vendor_of(CpuModel::kAmdEpyc7313P), Vendor::kAmd);
  EXPECT_EQ(family_of(CpuModel::kIntelXeonE5_1650),
            family_of(CpuModel::kIntelXeonE5_4617));
  EXPECT_NE(family_of(CpuModel::kIntelXeonE5_1650),
            family_of(CpuModel::kAmdEpyc7252));
}

TEST(Spec, ToStringCoversAllEnums) {
  for (int i = 0; i < static_cast<int>(Extension::kCount); ++i) {
    EXPECT_NE(to_string(static_cast<Extension>(i)), "?");
  }
  for (int i = 0; i < static_cast<int>(Category::kCount); ++i) {
    EXPECT_NE(to_string(static_cast<Category>(i)), "?");
  }
  for (std::size_t i = 0; i < kNumInstructionClasses; ++i) {
    EXPECT_NE(to_string(static_cast<InstructionClass>(i)), "?");
  }
}

TEST(Spec, ClflushVariantExistsAndIsLegal) {
  const auto spec = IsaSpecification::generate(CpuModel::kAmdEpyc7252);
  bool found = false;
  for (const auto& v : spec.variants()) {
    if (v.iclass == InstructionClass::kCacheFlush && v.legal()) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace aegis::isa
