#include "ofmf/events.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "ofmf/uris.hpp"

namespace ofmf::core {

namespace {

constexpr const char kInternalScheme[] = "ofmf-internal://";

bool Matches(const std::vector<std::string>& event_types, const std::string& type) {
  if (event_types.empty()) return true;
  return std::find(event_types.begin(), event_types.end(), type) != event_types.end();
}

std::vector<std::string> ParseEventTypes(const json::Json& body) {
  std::vector<std::string> types;
  if (body.at("EventTypes").is_array()) {
    for (const json::Json& type : body.at("EventTypes").as_array()) {
      if (type.is_string()) types.push_back(type.as_string());
    }
  }
  return types;
}

std::string EventTypeOf(const json::Json& record) {
  const json::Json& events = record.at("Events");
  if (events.is_array() && !events.as_array().empty()) {
    return events.as_array().front().GetString("EventType");
  }
  return {};
}

}  // namespace

json::Json Event::ToJson(std::uint64_t sequence, SimTime timestamp) const {
  json::Json record = json::Json::Obj({
      {"@odata.type", "#Event.v1_7_0.Event"},
      {"Id", std::to_string(sequence)},
      {"Name", "OFMF Event"},
      {"Events",
       json::Json::Arr({json::Json::Obj({
           {"EventType", event_type},
           {"EventId", std::to_string(sequence)},
           {"EventTimestamp", FormatSimTimestamp(timestamp)},
           {"MessageId", message_id},
           {"Message", message},
           {"OriginOfCondition", json::Json::Obj({{"@odata.id", origin}})},
       })})},
  });
  if (!oem.is_null()) {
    record.as_object().Set("Oem", oem);
  }
  return record;
}

EventService::EventService(redfish::ResourceTree& tree, SimClock& clock)
    : tree_(tree), clock_(clock) {
  tree_token_ = tree_.Subscribe(
      [this](const redfish::ChangeEvent& change) { OnTreeChange(change); });
  // Real loopback endpoints deliver over shared pooled keep-alive TcpClients
  // out of the box; tests and simulations override with their own factory.
  delivery_.set_client_factory(DefaultWireClientFactory());
  // Per-subscriber queue overflows surface as meta-events. The sink runs on
  // the engine's dispatcher thread with no engine lock held, so re-entering
  // Publish here is safe.
  delivery_.set_overflow_sink([this](const DeliveryEngine::Overflow& overflow) {
    PublishOverflowAlerts({overflow});
  });
}

EventService::~EventService() {
  // Join delivery threads first: the engine's overflow/cursor sinks re-enter
  // this service, so they must be quiescent before any member is destroyed.
  delivery_.Stop();
  tree_.Unsubscribe(tree_token_);
}

Status EventService::Bootstrap() {
  OFMF_RETURN_IF_ERROR(tree_.Create(
      kEventService, "#EventService.v1_10_0.EventService",
      json::Json::Obj(
          {{"Id", "EventService"},
           {"Name", "Event Service"},
           {"ServiceEnabled", true},
           {"DeliveryRetryAttempts", 3},
           {"ServerSentEventUri", kEventServiceSse},
           {"EventTypesForSubscription",
            json::Json::Arr({"StatusChange", "ResourceUpdated", "ResourceAdded",
                             "ResourceRemoved", "Alert", "MetricReport"})},
           {"Subscriptions", json::Json::Obj({{"@odata.id", kSubscriptions}})}})));
  return tree_.CreateCollection(
      kSubscriptions, "#EventDestinationCollection.EventDestinationCollection",
      "Event Subscriptions");
}

Result<std::string> EventService::Subscribe(const json::Json& body) {
  const std::string destination = body.GetString("Destination");
  if (destination.empty()) {
    return Status::InvalidArgument("Destination is required");
  }
  Subscription subscription;
  subscription.destination = destination;
  subscription.context = body.GetString("Context");
  subscription.event_types = ParseEventTypes(body);
  subscription.internal = strings::StartsWith(destination, kInternalScheme);

  std::string id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = std::to_string(next_id_++);
  }
  subscription.uri = std::string(kSubscriptions) + "/" + id;

  json::Json payload = body;
  payload.as_object().Set("Id", id);
  if (!payload.Contains("Name")) payload.as_object().Set("Name", "Subscription " + id);
  if (!payload.Contains("SubscriptionType")) {
    payload.as_object().Set("SubscriptionType", "RedfishEvent");
  }
  OFMF_RETURN_IF_ERROR(
      tree_.Create(subscription.uri, "#EventDestination.v1_12_0.EventDestination", payload));
  OFMF_RETURN_IF_ERROR(tree_.AddMember(kSubscriptions, subscription.uri));

  const std::string uri = subscription.uri;
  std::lock_guard<std::mutex> lock(mu_);
  if (!subscription.internal) {
    // New subscriptions start at the current frontier: they receive events
    // published after this point, journaled so a crash resumes here too.
    const std::uint64_t cursor = sequence_.load();
    delivery_.AddHttpSubscriber(uri, destination, subscription.event_types, cursor);
    if (cursor_journal_) cursor_journal_(uri, cursor);
  } else {
    ++internal_count_;
  }
  subscriptions_.emplace(uri, std::move(subscription));
  return uri;
}

std::size_t EventService::AdoptSubscriptionsFromTree() {
  const Result<std::vector<std::string>> members = tree_.Members(kSubscriptions);
  std::lock_guard<std::mutex> lock(mu_);
  subscriptions_.clear();
  internal_count_ = 0;
  delivery_.Clear();
  if (!members.ok()) return 0;
  for (const std::string& uri : *members) {
    const Result<json::Json> payload = tree_.GetRaw(uri);
    if (!payload.ok()) continue;
    Subscription subscription;
    subscription.uri = uri;
    subscription.destination = payload->GetString("Destination");
    subscription.context = payload->GetString("Context");
    subscription.event_types = ParseEventTypes(*payload);
    subscription.internal =
        strings::StartsWith(subscription.destination, kInternalScheme);
    const std::string id_text = payload->GetString("Id");
    char* end = nullptr;
    const unsigned long long id = std::strtoull(id_text.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && id >= next_id_) next_id_ = id + 1;

    if (subscription.internal) ++internal_count_;
    if (!subscription.internal) {
      // Resume from the recovered cursor (or the frontier for subscriptions
      // that never recorded one) and re-queue the unacknowledged suffix of
      // the retained log. Crash-between-POST-and-cursor-commit means a
      // batch may be redelivered: at-least-once, never lost.
      std::uint64_t cursor = sequence_.load();
      const auto recovered = recovered_cursors_.find(uri);
      if (recovered != recovered_cursors_.end()) cursor = recovered->second;
      delivery_.AddHttpSubscriber(uri, subscription.destination,
                                  subscription.event_types, cursor);
      std::vector<DeliveryItemPtr> backlog;
      for (const DeliveryItemPtr& item : event_log_) {
        if (item->sequence <= cursor) continue;
        if (!Matches(subscription.event_types, item->event_type)) continue;
        backlog.push_back(item);
      }
      if (!backlog.empty()) delivery_.Seed(uri, std::move(backlog));
    }
    subscriptions_.emplace(uri, std::move(subscription));
  }
  return subscriptions_.size();
}

Status EventService::Unsubscribe(const std::string& subscription_uri) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subscriptions_.find(subscription_uri);
    if (it == subscriptions_.end()) {
      return Status::NotFound("no subscription at " + subscription_uri);
    }
    if (!it->second.internal) {
      delivery_.RemoveSubscriber(subscription_uri);
    } else if (internal_count_ > 0) {
      --internal_count_;
    }
    subscriptions_.erase(it);
  }
  OFMF_RETURN_IF_ERROR(tree_.RemoveMember(kSubscriptions, subscription_uri));
  if (tree_.Exists(subscription_uri)) {
    OFMF_RETURN_IF_ERROR(tree_.Delete(subscription_uri));
  }
  return Status::Ok();
}

void EventService::Publish(const Event& event) {
  // Marks this thread so any network send the engine performs while we are
  // on the stack is counted — the "Publish does zero network syscalls"
  // assertion. Broadcast only enqueues; workers do the wire later.
  DeliveryEngine::PublishPathMarker marker;
  std::vector<DeliveryEngine::Overflow> overflows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t sequence = ++sequence_;
    json::Json record = event.ToJson(sequence, clock_.now());
    if (event_journal_) event_journal_(sequence, record);
    const DeliveryItemPtr item = std::make_shared<const DeliveryItem>(
        sequence, event.event_type, std::move(record),
        trace::Current().trace_id);
    event_log_.push_back(item);
    while (event_log_.size() > kEventLogRetention) event_log_.pop_front();

    // Internal queues are rare (debug watchers); with none registered the
    // publish path never walks the subscription map at all.
    for (auto& [uri, subscription] : subscriptions_) {
      if (internal_count_ == 0) break;
      if (!subscription.internal) continue;
      if (!Matches(subscription.event_types, event.event_type)) continue;
      if (subscription.queue.size() >= kInternalQueueCapacity) {
        subscription.queue.pop_front();
        ++subscription.dropped;
        internal_dropped_.fetch_add(1, std::memory_order_relaxed);
        if (!subscription.overflow_episode) {
          subscription.overflow_episode = true;
          overflows.push_back({uri, subscription.dropped});
        }
      }
      subscription.queue.push_back(item->record);
    }

    delivery_.Broadcast(item);
  }
  if (!overflows.empty()) PublishOverflowAlerts(overflows);
}

void EventService::PublishOverflowAlerts(
    const std::vector<DeliveryEngine::Overflow>& overflows) {
  // The alert is itself a published event; the guard stops an overflow
  // caused by the alert from generating alerts recursively.
  thread_local bool in_meta = false;
  if (in_meta) return;
  in_meta = true;
  for (const DeliveryEngine::Overflow& overflow : overflows) {
    Event alert;
    alert.event_type = "Alert";
    alert.message_id = "EventService.1.0.EventQueueFull";
    alert.message = "Subscriber queue overflowed; oldest undelivered events dropped";
    alert.origin = overflow.uri;
    alert.oem = json::Json::Obj(
        {{"DroppedTotal", static_cast<std::int64_t>(overflow.dropped)}});
    Publish(alert);
  }
  in_meta = false;
}

Result<std::vector<json::Json>> EventService::Drain(const std::string& subscription_uri) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subscriptions_.find(subscription_uri);
  if (it == subscriptions_.end()) {
    return Status::NotFound("no subscription at " + subscription_uri);
  }
  std::vector<json::Json> events(it->second.queue.begin(), it->second.queue.end());
  it->second.queue.clear();
  it->second.overflow_episode = false;
  return events;
}

std::string EventService::AttachStream(http::StreamWriter writer,
                                       std::vector<std::string> event_types) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string uri =
      std::string(kSubscriptions) + "/stream-" + std::to_string(next_stream_id_++);
  delivery_.AddStreamSubscriber(uri, std::move(writer), std::move(event_types));
  return uri;
}

void EventService::set_event_journal(EventJournal journal) {
  std::lock_guard<std::mutex> lock(mu_);
  event_journal_ = std::move(journal);
}

void EventService::set_cursor_journal(CursorJournal journal) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cursor_journal_ = journal;
  }
  delivery_.set_cursor_sink(std::move(journal));
}

store::DurableEventState EventService::ExportDurableEventState() const {
  std::lock_guard<std::mutex> lock(mu_);
  store::DurableEventState state;
  state.next_sequence = sequence_.load();
  state.events.reserve(event_log_.size());
  for (const DeliveryItemPtr& item : event_log_) {
    state.events.emplace_back(item->sequence, item->record);
  }
  const DeliverySnapshot snapshot = delivery_.Snapshot();
  for (const SubscriberSnapshot& subscriber : snapshot.subscribers) {
    if (subscriber.stream) continue;
    state.cursors.emplace_back(subscriber.uri, subscriber.acked_sequence);
  }
  return state;
}

void EventService::RestoreDurableEventState(const store::DurableEventState& state) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sequence = sequence_.load();
  if (state.next_sequence > sequence) sequence_.store(state.next_sequence);

  std::map<std::uint64_t, json::Json> merged;
  for (const DeliveryItemPtr& item : event_log_) {
    merged.emplace(item->sequence, item->record);
  }
  for (const auto& [seq, record] : state.events) {
    merged[seq] = record;
  }
  event_log_.clear();
  for (auto& [seq, record] : merged) {
    event_log_.push_back(std::make_shared<const DeliveryItem>(
        seq, EventTypeOf(record), std::move(record)));
  }
  while (event_log_.size() > kEventLogRetention) event_log_.pop_front();

  recovered_cursors_.clear();
  for (const auto& [uri, cursor] : state.cursors) {
    recovered_cursors_[uri] = cursor;
  }
}

void EventService::OnTreeChange(const redfish::ChangeEvent& change) {
  // Skip event-service plumbing itself and the quiet URIs (avoids
  // self-amplification) and session churn.
  if (strings::StartsWith(change.uri, kSubscriptions) ||
      strings::StartsWith(change.uri, kSessions) ||
      std::find(quiet_uris_.begin(), quiet_uris_.end(), change.uri) != quiet_uris_.end()) {
    return;
  }
  Event event;
  switch (change.kind) {
    case redfish::ChangeKind::kCreated:
      event.event_type = "ResourceAdded";
      event.message_id = "ResourceEvent.1.0.ResourceCreated";
      break;
    case redfish::ChangeKind::kModified:
      event.event_type = "ResourceUpdated";
      event.message_id = "ResourceEvent.1.0.ResourceChanged";
      break;
    case redfish::ChangeKind::kDeleted:
      event.event_type = "ResourceRemoved";
      event.message_id = "ResourceEvent.1.0.ResourceRemoved";
      break;
  }
  event.message = std::string(to_string(change.kind)) + ": " + change.uri;
  event.origin = change.uri;
  Publish(event);
}

}  // namespace ofmf::core
