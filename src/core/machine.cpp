#include "core/machine.hpp"

namespace psc {

const char* to_string(ActionRole role) {
  switch (role) {
    case ActionRole::kInput:
      return "input";
    case ActionRole::kOutput:
      return "output";
    case ActionRole::kInternal:
      return "internal";
    case ActionRole::kNotMine:
      return "not-mine";
  }
  return "?";
}

void SignatureDecl::add(ActionName name, int node, int peer,
                        ActionRole role) {
  entries_.push_back(Entry{name, node, peer, role});
}

void SignatureDecl::input(ActionName name, int node, int peer) {
  add(name, node, peer, ActionRole::kInput);
}

void SignatureDecl::output(ActionName name, int node, int peer) {
  add(name, node, peer, ActionRole::kOutput);
}

void SignatureDecl::internal(ActionName name, int node, int peer) {
  add(name, node, peer, ActionRole::kInternal);
}

const SignatureDecl& Machine::declare_and_cache() const {
  SignatureDecl decl;
  declare_signature(decl);
  signature_ = std::move(decl);
  return *signature_;
}

}  // namespace psc
