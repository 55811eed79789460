#include "remote/remote_ops.hh"

#include "sim/logging.hh"

namespace gasnub::remote {

const char *
methodName(TransferMethod m)
{
    switch (m) {
      case TransferMethod::Deposit: return "deposit";
      case TransferMethod::Fetch: return "fetch";
      case TransferMethod::CoherentPull: return "coherent-pull";
    }
    GASNUB_PANIC("bad TransferMethod");
}

} // namespace gasnub::remote
