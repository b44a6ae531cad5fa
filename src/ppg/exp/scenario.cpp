#include "ppg/exp/scenario.hpp"

#include <algorithm>
#include <ostream>
#include <regex>

#include "ppg/util/error.hpp"
#include "ppg/util/table.hpp"

namespace ppg {

void scenario_table::add_row(std::vector<std::string> cells) {
  PPG_CHECK(cells.size() == headers.size(),
            "row width must match the table headers");
  rows.push_back(std::move(cells));
}

void scenario_result::param(const std::string& name, json value) {
  params_[name] = std::move(value);
}

void scenario_result::metric(const std::string& name, double value,
                             metric_goal goal) {
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (metrics_[i].first == name) {
      metrics_[i].second = value;
      goals_[i] = goal;
      return;
    }
  }
  metrics_.emplace_back(name, value);
  goals_.push_back(goal);
}

scenario_table& scenario_result::table(std::string title,
                                       std::vector<std::string> headers) {
  tables_.push_back(scenario_table{std::move(title), std::move(headers), {}});
  return tables_.back();
}

void scenario_result::note(std::string text) {
  notes_.push_back(std::move(text));
}

void scenario_result::print(std::ostream& out) const {
  for (const auto& table : tables_) {
    if (!table.title.empty()) {
      out << table.title << "\n";
    }
    text_table rendered(table.headers);
    for (const auto& row : table.rows) {
      rendered.add_row(row);
    }
    rendered.print(out);
    out << "\n";
  }
  if (!metrics_.empty()) {
    out << "metrics:\n";
    for (const auto& [name, value] : metrics_) {
      out << "  " << name << " = " << format_metric(value) << "\n";
    }
  }
  for (const auto& note : notes_) {
    out << note << "\n";
  }
}

json scenario_result::to_json() const {
  json out = json::object();
  out["params"] = params_;
  json metrics = json::object();
  json goals = json::object();
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    metrics[metrics_[i].first] = metrics_[i].second;
    if (goals_[i] != metric_goal::none) {
      goals[metrics_[i].first] =
          goals_[i] == metric_goal::minimize ? "min" : "max";
    }
  }
  out["metrics"] = std::move(metrics);
  out["metric_goals"] = std::move(goals);
  json tables = json::array();
  for (const auto& table : tables_) {
    json entry = json::object();
    entry["title"] = table.title;
    json headers = json::array();
    for (const auto& header : table.headers) headers.push_back(header);
    entry["headers"] = std::move(headers);
    json rows = json::array();
    for (const auto& row : table.rows) {
      json cells = json::array();
      for (const auto& cell : row) cells.push_back(cell);
      rows.push_back(std::move(cells));
    }
    entry["rows"] = std::move(rows);
    tables.push_back(std::move(entry));
  }
  out["tables"] = std::move(tables);
  json notes = json::array();
  for (const auto& note : notes_) notes.push_back(note);
  out["notes"] = std::move(notes);
  return out;
}

scenario_registry& scenario_registry::global() {
  static scenario_registry instance;
  return instance;
}

void scenario_registry::register_scenario(scenario_info info) {
  PPG_CHECK(!info.name.empty(), "scenario name must not be empty");
  PPG_CHECK(static_cast<bool>(info.run), "scenario body must not be empty");
  PPG_CHECK(find(info.name) == nullptr,
            "duplicate scenario name: " + info.name);
  scenarios_.push_back(std::move(info));
}

void scenario_registry::register_scenario(
    std::string name, std::string tags, std::string description,
    std::function<scenario_result(const scenario_context&)> run) {
  register_scenario(scenario_info{std::move(name), std::move(tags),
                                  std::move(description), std::move(run)});
}

const scenario_info* scenario_registry::find(const std::string& name) const {
  for (const auto& scenario : scenarios_) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

namespace {

/// Splits a comma-separated tag list ("igt,stationary") into tags.
std::vector<std::string> split_tags(const std::string& tags) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= tags.size()) {
    const std::size_t comma = tags.find(',', start);
    const std::size_t end = comma == std::string::npos ? tags.size() : comma;
    if (end > start) out.push_back(tags.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

std::vector<const scenario_info*> scenario_registry::match(
    const std::string& filter) const {
  if (filter.empty()) return list();
  std::regex pattern;
  try {
    pattern = std::regex(filter, std::regex::ECMAScript);
  } catch (const std::regex_error& error) {
    PPG_CHECK(false, "malformed --filter regex '" + filter +
                         "': " + error.what());
  }
  std::vector<const scenario_info*> out;
  for (const auto& scenario : scenarios_) {
    bool selected = std::regex_search(scenario.name, pattern);
    if (!selected) {
      for (const auto& tag : split_tags(scenario.tags)) {
        if (std::regex_search(tag, pattern)) {
          selected = true;
          break;
        }
      }
    }
    if (selected) out.push_back(&scenario);
  }
  std::sort(out.begin(), out.end(),
            [](const scenario_info* a, const scenario_info* b) {
              return a->name < b->name;
            });
  return out;
}

std::vector<const scenario_info*> scenario_registry::list() const {
  std::vector<const scenario_info*> out;
  out.reserve(scenarios_.size());
  for (const auto& scenario : scenarios_) {
    out.push_back(&scenario);
  }
  std::sort(out.begin(), out.end(),
            [](const scenario_info* a, const scenario_info* b) {
              return a->name < b->name;
            });
  return out;
}

bool register_scenario(
    std::string name, std::string tags, std::string description,
    std::function<scenario_result(const scenario_context&)> run) {
  scenario_registry::global().register_scenario(
      std::move(name), std::move(tags), std::move(description),
      std::move(run));
  return true;
}

}  // namespace ppg
