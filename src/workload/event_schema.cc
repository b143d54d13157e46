#include "workload/event_schema.h"

namespace comptx::workload {

const EventLayout* FindLayout(std::string_view name) {
  for (const EventLayout& layout : kEventLayouts) {
    if (name == layout.name) return &layout;
  }
  return nullptr;
}

bool IsAdtLayerEvent(TraceEventKind kind) {
  const auto adt_layer = [](FieldRole role) {
    return role == FieldRole::kAdt || role == FieldRole::kClass;
  };
  const EventLayout& layout = LayoutOf(kind);
  if (layout.creates && adt_layer(*layout.creates)) return true;
  for (const EventField& field : layout.fields()) {
    if (adt_layer(field.role)) return true;
  }
  return false;
}

}  // namespace comptx::workload
