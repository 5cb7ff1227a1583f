// Umbrella header for the telemetry layer: metrics (counters, gauges,
// histograms and the registry that names them), the trace recorder, and
// the Prometheus/JSON exporters.
//
// There is one telemetry build. Every instrumentation call site is
// always compiled in and histograms always record, so the exported
// metric text — and with it every state digest — is the same for every
// build. The only runtime switch is TraceRecorder's: tracing is off
// unless a consumer (ntapi_cli --trace, a test) turns it on.
#pragma once

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
