#include "emit.hh"

#include <cstdio>

namespace memo::lint
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
emitText(std::ostream &os, const std::vector<Finding> &findings)
{
    for (const Finding &f : findings) {
        os << f.file << ":" << f.line << ":" << f.col << ": "
           << severityName(f.rule->severity) << ": " << f.message
           << ": " << f.rule->summary << " [" << f.rule->id << "]\n"
           << "    hint: " << f.rule->hint << "\n";
    }
}

void
emitSarif(std::ostream &os, const std::vector<Finding> &findings)
{
    os << "{\n"
          "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
          "  \"version\": \"2.1.0\",\n"
          "  \"runs\": [{\n"
          "    \"tool\": {\"driver\": {\n"
          "      \"name\": \"memo-lint\",\n"
          "      \"informationUri\": \"docs/LINTING.md\",\n"
          "      \"rules\": [";
    const std::vector<RuleInfo> &rules = ruleCatalog();
    for (size_t i = 0; i < rules.size(); i++) {
        os << (i ? ",\n        " : "\n        ") << "{\"id\": \""
           << rules[i].id << "\", \"shortDescription\": {\"text\": \""
           << jsonEscape(rules[i].summary)
           << "\"}, \"help\": {\"text\": \""
           << jsonEscape(rules[i].hint)
           << "\"}, \"defaultConfiguration\": {\"level\": \""
           << severityName(rules[i].severity) << "\"}}";
    }
    os << "\n      ]\n"
          "    }},\n"
          "    \"results\": [";
    for (size_t i = 0; i < findings.size(); i++) {
        const Finding &f = findings[i];
        os << (i ? ",\n      " : "\n      ") << "{\"ruleId\": \""
           << f.rule->id << "\", \"level\": \""
           << severityName(f.rule->severity)
           << "\", \"message\": {\"text\": \""
           << jsonEscape(f.message + ": " + f.rule->summary)
           << "\"}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": \""
           << jsonEscape(f.file)
           << "\"}, \"region\": {\"startLine\": " << f.line
           << ", \"startColumn\": " << f.col << "}}}]}";
    }
    os << (findings.empty() ? "]\n" : "\n    ]\n")
       << "  }]\n}\n";
}

} // namespace memo::lint
