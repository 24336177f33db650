// spiv::core::env — the process's single environment-resolution point.
//
// Every SPIV_* knob used to be read with a private std::getenv scattered
// through the tree (core/parallel, store/cert_store, exact/modular,
// obs/span, the bench harnesses), each with its own parsing and its own
// idea of what a malformed value means.  This module centralizes them:
// one raw accessor, one strict parser per variable, and warn-once
// diagnostics for malformed values, so the full table of variables is
// documented in exactly one place (see README "Environment variables").
//
// All accessors re-read the environment on every call — tests flip
// variables with setenv/unsetenv and expect the change to be visible —
// while the warn-once flags are process-wide so a misconfigured shell
// does not spam every job of a parallel harness.
//
// Higher layers (verify::VerifyContext) resolve their defaults through
// these functions once per request/context and can override any of them
// explicitly; kernels below take the resolved values as parameters.
#pragma once

#include <optional>
#include <string>

namespace spiv::core::env {

/// Raw $name (nullptr when unset).  This is the ONLY std::getenv call site
/// in the library tree — new variables must be added here, not read ad hoc.
[[nodiscard]] const char* raw(const char* name) noexcept;

/// Strict positive-integer parse: the whole string must be a positive
/// decimal integer in `long` range ("4abc", "-1", "3.5", "" all reject).
[[nodiscard]] std::optional<std::size_t> parse_positive(const char* text);

/// Strict non-negative-seconds parse: the whole string must be a decimal
/// number in [0, 1e18] ("1.5", ".5" and "1e18", "effectively never",
/// accept; " 1", "1s", "-1", "inf", "nan", "1e19", "" all reject).
[[nodiscard]] std::optional<double> parse_seconds(const char* text);

/// $SPIV_JOBS — worker-thread count for the experiment pools.  Returns
/// nullopt when unset or malformed; a malformed value additionally warns
/// once per process on stderr.  Callers (core::resolve_jobs) fall back to
/// hardware_concurrency and apply the oversubscription cap.
[[nodiscard]] std::optional<std::size_t> jobs();

/// $SPIV_CACHE_DIR — certificate-store directory; empty = caching off.
[[nodiscard]] std::string cache_dir();

/// $SPIV_TRACE — JSONL span-trace path (obs::Span); empty = tracing off.
[[nodiscard]] std::string trace_path();

/// $SPIV_NEG_TTL — TTL in seconds for negative caching of synth-failed and
/// timeout outcomes in the certificate store (verify pipeline).  Returns
/// nullopt when unset or malformed (malformed warns once per process);
/// 0 disables negative caching.  Only `spiv-serve --listen` reads it, and
/// defaults to 30 s without it; the library (ServiceOptions) and the stdin
/// mode default to 0.
[[nodiscard]] std::optional<double> negative_ttl();

/// Testing hook: rearm the warn-once flags so diagnostics tests can observe
/// each warning deterministically.  Not for production code.
void rearm_warnings_for_testing();

}  // namespace spiv::core::env
