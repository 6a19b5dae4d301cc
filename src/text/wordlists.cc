#include "text/wordlists.h"

#include <unordered_map>

#include "common/string_util.h"

namespace tenet {
namespace text {
namespace {

// clang-format off
const std::vector<VerbForms> kVerbs = {
    {"study", "studied", "studies", "studying"},
    {"visit", "visited", "visits", "visiting"},
    {"direct", "directed", "directs", "directing"},
    {"found", "founded", "founds", "founding"},
    {"establish", "established", "establishes", "establishing"},
    {"write", "wrote", "writes", "writing"},
    {"paint", "painted", "paints", "painting"},
    {"compose", "composed", "composes", "composing"},
    {"marry", "married", "marries", "marrying"},
    {"acquire", "acquired", "acquires", "acquiring"},
    {"publish", "published", "publishes", "publishing"},
    {"produce", "produced", "produces", "producing"},
    {"lead", "led", "leads", "leading"},
    {"manage", "managed", "manages", "managing"},
    {"own", "owned", "owns", "owning"},
    {"create", "created", "creates", "creating"},
    {"design", "designed", "designs", "designing"},
    {"develop", "developed", "develops", "developing"},
    {"launch", "launched", "launches", "launching"},
    {"join", "joined", "joins", "joining"},
    {"leave", "left", "leaves", "leaving"},
    {"teach", "taught", "teaches", "teaching"},
    {"advise", "advised", "advises", "advising"},
    {"mentor", "mentored", "mentors", "mentoring"},
    {"award", "awarded", "awards", "awarding"},
    {"win", "won", "wins", "winning"},
    {"receive", "received", "receives", "receiving"},
    {"attend", "attended", "attends", "attending"},
    {"graduate", "graduated", "graduates", "graduating"},
    {"work", "worked", "works", "working"},
    {"live", "lived", "lives", "living"},
    {"move", "moved", "moves", "moving"},
    {"travel", "traveled", "travels", "traveling"},
    {"bear", "bore", "bears", "bearing"},
    {"die", "died", "dies", "dying"},
    {"discover", "discovered", "discovers", "discovering"},
    {"invent", "invented", "invents", "inventing"},
    {"propose", "proposed", "proposes", "proposing"},
    {"prove", "proved", "proves", "proving"},
    {"investigate", "investigated", "investigates", "investigating"},
    {"research", "researched", "researches", "researching"},
    {"explore", "explored", "explores", "exploring"},
    {"chair", "chaired", "chairs", "chairing"},
    {"sponsor", "sponsored", "sponsors", "sponsoring"},
    {"fund", "funded", "funds", "funding"},
    {"support", "supported", "supports", "supporting"},
    {"collaborate", "collaborated", "collaborates", "collaborating"},
    {"partner", "partnered", "partners", "partnering"},
    {"merge", "merged", "merges", "merging"},
    {"buy", "bought", "buys", "buying"},
    {"sell", "sold", "sells", "selling"},
    {"build", "built", "builds", "building"},
    {"open", "opened", "opens", "opening"},
    {"close", "closed", "closes", "closing"},
    {"host", "hosted", "hosts", "hosting"},
    {"organize", "organized", "organizes", "organizing"},
    {"perform", "performed", "performs", "performing"},
    {"record", "recorded", "records", "recording"},
    {"release", "released", "releases", "releasing"},
    {"star", "starred", "stars", "starring"},
    {"play", "played", "plays", "playing"},
    {"coach", "coached", "coaches", "coaching"},
    {"govern", "governed", "governs", "governing"},
    {"represent", "represented", "represents", "representing"},
    {"serve", "served", "serves", "serving"},
    {"speak", "spoke", "speaks", "speaking"},
    {"announce", "announced", "announces", "announcing"},
    {"present", "presented", "presents", "presenting"},
    {"review", "reviewed", "reviews", "reviewing"},
    {"celebrate", "celebrated", "celebrates", "celebrating"},
    {"admire", "admired", "admires", "admiring"},
    {"describe", "described", "describes", "describing"},
    {"mention", "mentioned", "mentions", "mentioning"},
    {"criticize", "criticized", "criticizes", "criticizing"},
};

// Lemmas drawn on by the synthetic KB for predicate surfaces.
const std::vector<std::string_view> kPredicateVerbLemmas = {
    "study", "visit", "direct", "found", "establish", "write", "paint",
    "compose", "marry", "acquire", "publish", "produce", "lead", "manage",
    "own", "create", "design", "develop", "launch", "join", "leave",
    "teach", "advise", "mentor", "award", "win", "receive", "attend",
    "graduate", "work", "live", "move", "bear", "discover", "invent",
    "propose", "chair", "sponsor", "fund", "collaborate", "partner",
    "merge", "buy", "sell", "build", "host", "organize", "perform",
    "record", "release", "star", "play", "coach", "govern", "represent",
    "serve",
};

// Verbs that render real sentences but never alias a KB predicate; the
// corpus generator uses them for non-linkable relational phrases.
const std::vector<std::string_view> kNonKbVerbLemmas = {
    "travel", "die", "prove", "investigate", "research", "explore", "open",
    "close", "speak", "announce", "present", "review", "celebrate",
    "admire", "describe", "mention", "criticize",
};

const std::vector<std::string_view> kVerbParticles = {
    "at", "in", "with", "for", "to",
};

const std::vector<std::string_view> kCoordinatingConjunctions = {
    "and", "or",
};

const std::vector<std::string_view> kPrepositions = {
    "of", "on", "in", "at", "for", "from", "by", "with", "under", "over",
};

const std::vector<std::string_view> kConnectorPunctuation = {":", "-"};

const std::vector<std::string_view> kDeterminers = {
    "the", "a", "an", "this", "that", "its", "his", "her", "their",
};

const std::vector<std::string_view> kStopwords = {
    "the", "a", "an", "of", "on", "in", "at", "for", "from", "by", "with",
    "under", "over", "and", "or", "to", "as", "is", "are", "was", "were",
    "be", "been", "he", "she", "it", "they", "him", "her", "them", "his",
    "its", "their", "this", "that", "also", "more", "than", "during",
    "after", "before", "new", "first", "last", "year", "years",
};

const std::vector<std::string_view> kPronouns = {
    "he", "she", "it", "they", "him", "her", "them",
};

const std::vector<std::string_view> kPersonFirstNames = {
    "Adrian", "Beatrice", "Cedric", "Dalia", "Edmund", "Farah", "Gideon",
    "Helena", "Ivor", "Jasmine", "Kieran", "Lavinia", "Magnus", "Nadia",
    "Orson", "Petra", "Quentin", "Rosalind", "Silas", "Tamsin", "Ulric",
    "Verena", "Wendell", "Xenia", "Yorick", "Zelda", "Anselm", "Bronwyn",
    "Caspian", "Delphine", "Emeric", "Fiora", "Gareth", "Honora",
};

const std::vector<std::string_view> kPersonLastNames = {
    "Abernathy", "Blackwood", "Carmichael", "Delacroix", "Eastgate",
    "Fairbanks", "Greenhalgh", "Hawthorne", "Ingleby", "Jarnvik",
    "Kingsley", "Lockridge", "Montclair", "Northgate", "Oakhurst",
    "Pemberton", "Quillfeather", "Ravenswood", "Stanhope", "Thornbury",
    "Underhill", "Vanterpool", "Westbrook", "Yardley", "Ashdown",
    "Briarcliff", "Coldstream", "Dunmore", "Elsworth", "Farrow",
};

const std::vector<std::string_view> kOrganizationHeads = {
    "Meridian", "Vanguard", "Summit", "Pinnacle", "Horizon", "Keystone",
    "Beacon", "Crescent", "Northern", "Atlas", "Orion", "Polaris",
    "Sterling", "Granite", "Harbor", "Cascade", "Aurora", "Zenith",
    "Frontier", "Heritage",
};

const std::vector<std::string_view> kOrganizationSuffixes = {
    "Institute", "University", "Laboratories", "Corporation", "Foundation",
    "Society", "Academy", "College", "Consortium", "Council", "Museum",
    "Observatory", "Press",
};

const std::vector<std::string_view> kLocationNames = {
    "Ashford", "Brindlemere", "Caldwell", "Dunhaven", "Eastmoor",
    "Fernleigh", "Glenbrook", "Hartwell", "Inverdale", "Jutland",
    "Kestrel", "Larkspur", "Marrowgate", "Netherfield", "Oakvale",
    "Pinehurst", "Quarrydown", "Rosemont", "Silverlake", "Thistledown",
    "Umberton", "Vexley", "Wyndham", "Yarrowfield",
};

const std::vector<std::string_view> kLocationSuffixes = {
    "Bay", "Island", "Valley", "Heights", "Harbor", "Falls", "Ridge",
    "Plains", "Sound",
};

const std::vector<std::string_view> kWorkHeadNouns = {
    "Storm", "Voyage", "Garden", "Portrait", "Symphony", "Chronicle",
    "Ballad", "Mirror", "Lantern", "Crown", "Shadow", "River", "Winter",
    "Harvest", "Procession", "Elegy", "Dream", "Masquerade",
};

const std::vector<std::string_view> kTopicAdjectives = {
    "quantum", "statistical", "computational", "synthetic", "molecular",
    "cognitive", "distributed", "adaptive", "nonlinear", "stochastic",
    "semantic", "structural", "dynamic", "neural", "symbolic",
};

const std::vector<std::string_view> kTopicNouns = {
    "inference", "optimization", "linguistics", "chemistry", "robotics",
    "cartography", "economics", "epidemiology", "astronomy", "genomics",
    "logic", "topology", "rhetoric", "hydrology", "metallurgy",
};

const std::vector<std::string_view> kProductHeads = {
    "Falcon", "Comet", "Nimbus", "Quasar", "Vertex", "Spectra", "Pulsar",
    "Nova", "Titan", "Zephyr",
};

const std::vector<std::string_view> kEventHeads = {
    "Expo", "Summit", "Festival", "Symposium", "Congress", "Biennale",
    "Regatta", "Tournament",
};
// clang-format on

}  // namespace

const std::vector<VerbForms>& Verbs() { return kVerbs; }

const std::vector<std::string_view>& PredicateVerbLemmas() {
  return kPredicateVerbLemmas;
}

const std::vector<std::string_view>& NonKbVerbLemmas() {
  return kNonKbVerbLemmas;
}

const std::vector<std::string_view>& VerbParticles() { return kVerbParticles; }

const std::vector<std::string_view>& CoordinatingConjunctions() {
  return kCoordinatingConjunctions;
}

const std::vector<std::string_view>& Prepositions() { return kPrepositions; }

bool IsNumberWord(std::string_view word) { return IsAsciiNumber(word); }

const std::vector<std::string_view>& ConnectorPunctuation() {
  return kConnectorPunctuation;
}

const std::vector<std::string_view>& Determiners() { return kDeterminers; }

const std::vector<std::string_view>& Stopwords() { return kStopwords; }

const std::vector<std::string_view>& Pronouns() { return kPronouns; }

const std::vector<std::string_view>& PersonFirstNames() {
  return kPersonFirstNames;
}
const std::vector<std::string_view>& PersonLastNames() {
  return kPersonLastNames;
}
const std::vector<std::string_view>& OrganizationHeads() {
  return kOrganizationHeads;
}
const std::vector<std::string_view>& OrganizationSuffixes() {
  return kOrganizationSuffixes;
}
const std::vector<std::string_view>& LocationNames() { return kLocationNames; }
const std::vector<std::string_view>& LocationSuffixes() {
  return kLocationSuffixes;
}
const std::vector<std::string_view>& WorkHeadNouns() { return kWorkHeadNouns; }
const std::vector<std::string_view>& TopicAdjectives() {
  return kTopicAdjectives;
}
const std::vector<std::string_view>& TopicNouns() { return kTopicNouns; }
const std::vector<std::string_view>& ProductHeads() { return kProductHeads; }
const std::vector<std::string_view>& EventHeads() { return kEventHeads; }

const VerbForms* FindVerbByLemma(std::string_view lemma) {
  for (const VerbForms& v : kVerbs) {
    if (v.lemma == lemma) return &v;
  }
  return nullptr;
}

}  // namespace text
}  // namespace tenet
