// The malicious service provider of the paper's threat model, for tests
// and examples: forges an engine's answer in one of six ways, each of which
// the client-side verifier must reject with the matching reason.
//
// The adversary runs the method's provider on the engine's current
// snapshot (pinned once per forgery); it never goes through the engine's
// answer path or proof cache, so forging leaves honest serving untouched.
// Bogus-signature, phantom-edge, tamper-weight and forge-distance work on
// the honest wire bundle the same way for every method (decode, mutate,
// re-encode); only drop-tuple and suboptimal-path depend on the method's
// hints.
#ifndef SPAUTH_TESTS_ADVERSARY_TAMPER_H_
#define SPAUTH_TESTS_ADVERSARY_TAMPER_H_

#include <string_view>

#include "core/engine.h"
#include "graph/workload.h"
#include "util/status.h"

namespace spauth {

enum class TamperKind {
  kSuboptimalPath,      // return a longer real path with "honest" proofs
  kTamperWeight,        // alter an edge weight inside a shipped tuple
  kDropTuple,           // omit a tuple, regenerate a root-valid Merkle proof
  kForgeDistanceValue,  // alter an authenticated distance entry
  kBogusSignature,      // corrupt the certificate signature
  kPhantomEdge,         // report a path over a non-existent edge
};
std::string_view ToString(TamperKind kind);

inline constexpr TamperKind kAllTamperKinds[] = {
    TamperKind::kSuboptimalPath,     TamperKind::kTamperWeight,
    TamperKind::kDropTuple,          TamperKind::kForgeDistanceValue,
    TamperKind::kBogusSignature,     TamperKind::kPhantomEdge,
};

/// `engine`'s answer to `query`, forged by attack `kind`. FailedPrecondition
/// when the attack does not apply to the engine's method (forge-distance on
/// DIJ/LDM), NotFound when this query offers no opportunity (e.g. no
/// strictly longer alternative path exists).
Result<ProofBundle> TamperedAnswer(const MethodEngine& engine,
                                   const Query& query, TamperKind kind);

}  // namespace spauth

#endif  // SPAUTH_TESTS_ADVERSARY_TAMPER_H_
