// Persistence for the offline analysis (paper Fig. 2: "the two modules in
// the offline stage are only performed one time, and the analyzed results
// would be applied in the online stage").
//
// The offline stage runs on a template server; the victim VM only needs
// its *result* — the vulnerable-event ranking, the confirmed gadgets and
// the cover. save/load use a line-oriented text format (one section per
// component) so the analysis can be shipped into the guest, versioned and
// diffed. The header line carries an explicit format version
// ("aegis-offline-result v<N>"): only the current version loads, and any
// other is rejected with one clear error (a cache holding such a file
// re-analyses). Event ids are stored
// by NAME, so a result saved against one family member loads against
// another (Table I: family members share their event lists).
#pragma once

#include <iosfwd>
#include <string>

#include "core/aegis.hpp"

namespace aegis::core {

/// Writes the analysis to a stream. Includes the CPU model for validation.
void save_offline_result(std::ostream& os, const OfflineResult& result,
                         const pmu::EventDatabase& db);

/// Reads an analysis back. Throws std::runtime_error on malformed input,
/// unknown event names, a CPU family mismatch, or a gadget uid that is not
/// a legal variant of `spec` (the loading CPU's ISA specification).
OfflineResult load_offline_result(std::istream& is,
                                  const pmu::EventDatabase& db,
                                  const isa::IsaSpecification& spec);

/// File-path convenience wrappers. save_offline_result replaces `path`
/// atomically (temp file + rename): on any failure it throws and leaves the
/// previous file, if any, untouched.
void save_offline_result(const std::string& path, const OfflineResult& result,
                         const pmu::EventDatabase& db);
OfflineResult load_offline_result(const std::string& path,
                                  const pmu::EventDatabase& db,
                                  const isa::IsaSpecification& spec);

}  // namespace aegis::core
